"""Atomic execution: transactions, savepoints, rollback, failure reports.

Section 3.2 defines a run-time failure mode (the undefined edge
addition), and a failed operation mid-program would otherwise leave the
database partially transformed.  :class:`Transaction` provides the
crash-consistency discipline: it attaches an undo journal to a
transactional *target* (a native :class:`~repro.core.instance.Instance`
or either storage engine — see :mod:`repro.txn.journal` for the hooks)
at begin, supports named :class:`Savepoint`\\ s, and restores the exact
pre-transaction state — scheme included — on ``rollback``.

Used as a context manager, an exception anywhere inside the block
triggers an automatic rollback (and re-raises, with the
:class:`FailureReport` attached to the exception as
``error.failure_report``)::

    with Transaction(db):
        program.run(db, in_place=True, atomic=False)

Begin and savepoints are O(1), rollback is O(changes).  A target
without the journal hooks is refused at begin with
:class:`~repro.core.errors.TransactionError` (all three built-in
targets have them).

:func:`atomic_run` is the shared all-or-nothing driver the program and
engine runners build on: it applies a sequence of operations inside a
transaction, reports progress to the fault-injection hooks, and on any
failure rolls back, certifies the restored state, and re-raises.  On
success it hands back the committed journal, which a served write logs
as its redo record and keeps as its undo frame
(:meth:`~repro.txn.journal.UndoJournal.revert`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, List, Optional, Sequence, Tuple

from repro.core.counters import charge as _charge
from repro.core.errors import TransactionError
from repro.txn import faults
from repro.txn.journal import EST_BYTES_PER_ITEM, supports_journal
from repro.txn.snapshot import summarize

ACTIVE = "active"
COMMITTED = "committed"
ROLLED_BACK = "rolled back"


@dataclass(frozen=True)
class FailureReport:
    """Structured account of one rolled-back failure.

    ``nodes_rolled_back``/``edges_rolled_back`` are the net size deltas
    the rollback undid (dirty minus restored — negative when the failed
    program had net-deleted structure that the rollback resurrected).
    ``invariants_ok`` records whether a from-scratch re-validation of
    every model constraint passed on the restored state.
    """

    failed_index: int
    operation: str
    error_type: str
    error: str
    completed_operations: int
    nodes_rolled_back: int
    edges_rolled_back: int
    scheme_rolled_back: bool
    invariants_ok: bool

    def summary(self) -> str:
        """One-line human-readable account of the failure and rollback."""
        return (
            f"{self.error_type} at operation {self.failed_index} ({self.operation}): "
            f"rolled back {self.completed_operations} completed operation(s), "
            f"{self.nodes_rolled_back:+d} nodes, {self.edges_rolled_back:+d} edges"
            f"{', scheme changes' if self.scheme_rolled_back else ''}; "
            f"invariants {'OK' if self.invariants_ok else 'VIOLATED'}"
        )


class Savepoint:
    """A named intermediate rollback anchor inside an active transaction:
    an O(1) journal watermark (``_mark``)."""

    def __init__(self, name: str, sequence: int, mark: Any) -> None:
        self.name = name
        self.sequence = sequence
        self._mark = mark
        self.released = False

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        status = "released" if self.released else "active"
        return f"Savepoint({self.name!r}, {status})"


class Transaction:
    """All-or-nothing mutation of one transactional target.

    Begin attaches an O(1) undo journal to the target, savepoints are
    O(1) watermarks, and rollback reverse-replays only the journalled
    changes.
    """

    def __init__(self, target: Any, name: Optional[str] = None) -> None:
        if not supports_journal(target):
            raise TransactionError(
                f"{type(target).__name__} is not a transactional target "
                "(missing hooks: begin_journal/rollback_journal)"
            )
        self.target = target
        self.name = name if name is not None else f"txn@{id(target):x}"
        self.status = ACTIVE
        self.failure_report: Optional[FailureReport] = None
        self._savepoints: List[Savepoint] = []
        self._savepoint_counter = 0
        self._journal = target.begin_journal()

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def _require_active(self, verb: str) -> None:
        if self.status != ACTIVE:
            raise TransactionError(f"cannot {verb}: transaction {self.name!r} is {self.status}")

    @property
    def is_active(self) -> bool:
        """Whether the transaction can still commit or roll back."""
        return self.status == ACTIVE

    def commit(self) -> Any:
        """Keep all changes; the transaction (and its savepoints) end.

        Returns the closed journal: its entries still describe every
        change, for the redo record and for a later revert.
        """
        self._require_active("commit")
        journal = self._journal
        _charge(txn_journal_entries=journal.entries_recorded)
        journal.close()
        self._journal = None
        self.status = COMMITTED
        self._savepoints.clear()
        return journal

    def rollback(
        self,
        error: Optional[BaseException] = None,
        failed_index: int = -1,
        operation: str = "",
        completed: int = 0,
    ) -> FailureReport:
        """Restore the exact begin state (scheme included).

        The optional arguments describe *why* (which operation failed
        with what error, and how many operations had completed); they
        flow into the returned :class:`FailureReport`, which is also
        kept as ``self.failure_report``.
        """
        self._require_active("roll back")
        dirty_nodes, dirty_edges = summarize(self.target)
        _charge(txn_rollbacks=1)
        scheme_dirty = self._journal.scheme_dirty()
        self.target.rollback_journal(self._journal, self._journal.begin_mark)
        clean_nodes, clean_edges = summarize(self.target)
        # what a full-copy rollback would have copied twice (capture at
        # begin + restore) and this one never touched
        _charge(
            txn_journal_entries=self._journal.entries_recorded,
            txn_bytes_avoided=EST_BYTES_PER_ITEM * (clean_nodes + clean_edges),
        )
        self._journal.close()
        self._journal = None
        invariants_ok = True
        try:
            self.target.check_invariants()
        except Exception:  # the report records the violation; no mask
            invariants_ok = False
        self.status = ROLLED_BACK
        self._savepoints.clear()
        self.failure_report = FailureReport(
            failed_index=failed_index,
            operation=operation,
            error_type=type(error).__name__ if error is not None else "",
            error=str(error) if error is not None else "",
            completed_operations=completed,
            nodes_rolled_back=dirty_nodes - clean_nodes,
            edges_rolled_back=dirty_edges - clean_edges,
            scheme_rolled_back=scheme_dirty,
            invariants_ok=invariants_ok,
        )
        return self.failure_report

    # ------------------------------------------------------------------
    # savepoints
    # ------------------------------------------------------------------
    def savepoint(self, name: Optional[str] = None) -> Savepoint:
        """Anchor the current state: an O(1) journal watermark."""
        self._require_active("create a savepoint")
        self._savepoint_counter += 1
        label = name if name is not None else f"sp{self._savepoint_counter}"
        point = Savepoint(label, self._savepoint_counter, self._journal.mark())
        self._savepoints.append(point)
        return point

    def _find(self, savepoint: Savepoint) -> int:
        for index, candidate in enumerate(self._savepoints):
            if candidate is savepoint:
                return index
        raise TransactionError(
            f"savepoint {savepoint.name!r} does not belong to transaction {self.name!r} "
            "or was already released"
        )

    def rollback_to(self, savepoint: Savepoint) -> None:
        """Restore the state at ``savepoint``; later savepoints vanish.

        The transaction stays active (and the savepoint stays valid, so
        it can be rolled back to again).
        """
        self._require_active("roll back to a savepoint")
        index = self._find(savepoint)
        _charge(txn_rollbacks=1)
        self.target.rollback_journal(self._journal, savepoint._mark)
        for stale in self._savepoints[index + 1 :]:
            stale.released = True
        del self._savepoints[index + 1 :]

    def release(self, savepoint: Savepoint) -> None:
        """Discard ``savepoint`` (and any later ones) without restoring."""
        self._require_active("release a savepoint")
        index = self._find(savepoint)
        for stale in self._savepoints[index:]:
            stale.released = True
        del self._savepoints[index:]

    @property
    def savepoints(self) -> Tuple[Savepoint, ...]:
        """The live savepoints, oldest first."""
        return tuple(self._savepoints)

    # ------------------------------------------------------------------
    # context manager
    # ------------------------------------------------------------------
    def __enter__(self) -> "Transaction":
        self._require_active("enter")
        return self

    def __exit__(self, exc_type, exc, _tb) -> bool:
        if not self.is_active:  # explicit commit/rollback inside the block
            return False
        if exc is None:
            self.commit()
            return False
        report = self.rollback(error=exc)
        try:
            exc.failure_report = report
        except AttributeError:  # exceptions with __slots__
            pass
        return False

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Transaction({self.name!r}, {self.status}, savepoints={len(self._savepoints)})"


def atomic_run(
    target: Any,
    operations: Sequence[Any],
    apply: Callable[[Any], Any],
    name: Optional[str] = None,
) -> Tuple[List[Any], Any]:
    """Apply ``operations`` all-or-nothing against ``target``.

    Shared driver for :meth:`Program.run <repro.core.program.Program.run>`
    (atomic in-place mode), the engine ``run`` loops and
    :class:`~repro.core.method_runner.EngineMethodRunner`: each
    operation is announced to the fault-injection hooks and applied via
    ``apply``; any exception rolls the target back to the pre-run state
    and re-raises with ``error.failure_report`` attached.  Returns the
    per-operation reports and the committed journal on success.
    """
    txn = Transaction(target, name=name)
    reports: List[Any] = []
    index = -1
    operation = None
    try:
        for index, operation in enumerate(operations):
            faults.before_operation(operation, index)
            reports.append(apply(operation))
            faults.after_operation(operation, index)
    except Exception as error:
        described = ""
        if operation is not None and hasattr(operation, "describe"):
            described = operation.describe()
        report = txn.rollback(
            error=error,
            failed_index=max(index, 0),
            operation=described,
            completed=len(reports),
        )
        try:
            error.failure_report = report
        except AttributeError:  # pragma: no cover - exotic exceptions
            pass
        raise
    return reports, txn.commit()
