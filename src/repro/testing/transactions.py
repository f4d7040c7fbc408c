"""The full-snapshot transaction protocol: the undo journal's oracle.

:class:`~repro.txn.transaction.Transaction` journals inverse entries
and replays them on rollback.  :class:`SnapshotTransaction` copies the
whole state at begin and at every savepoint
(:func:`repro.txn.snapshot.capture`) and reinstalls the copy on
rollback — O(nodes+edges) each time, through no journal code path.
``tests/property/test_journal_equivalence.py`` fails the same random
program under both and asserts the restored states agree.
"""

from __future__ import annotations

from typing import Any, Optional

from repro.core.counters import charge as _charge
from repro.txn.snapshot import capture, restore, summarize
from repro.txn.transaction import ACTIVE, COMMITTED, ROLLED_BACK, FailureReport, Savepoint, Transaction


class SnapshotTransaction(Transaction):
    """A :class:`Transaction` that restores full state copies.

    Only the lifecycle bookkeeping (status checks, savepoint list,
    context manager) is inherited; a savepoint's ``_mark`` holds a
    captured state instead of a journal watermark.
    """

    def __init__(self, target: Any, name: Optional[str] = None) -> None:
        # deliberately not calling Transaction.__init__: no journal
        self.target = target
        self.name = name if name is not None else f"txn@{id(target):x}"
        self.status = ACTIVE
        self.failure_report: Optional[FailureReport] = None
        self._savepoints = []
        self._savepoint_counter = 0
        self._begin = capture(target)
        self._begin_scheme = target.scheme.copy()

    def commit(self) -> None:
        self._require_active("commit")
        self.status = COMMITTED
        self._begin = None
        self._savepoints.clear()

    def rollback(
        self,
        error: Optional[BaseException] = None,
        failed_index: int = -1,
        operation: str = "",
        completed: int = 0,
    ) -> FailureReport:
        self._require_active("roll back")
        dirty_nodes, dirty_edges = summarize(self.target)
        _charge(txn_rollbacks=1)
        scheme_dirty = self.target.scheme != self._begin_scheme
        restore(self.target, self._begin)
        clean_nodes, clean_edges = summarize(self.target)
        invariants_ok = True
        try:
            self.target.check_invariants()
        except Exception:  # the report records the violation; no mask
            invariants_ok = False
        self.status = ROLLED_BACK
        self._begin = None
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

    def savepoint(self, name: Optional[str] = None) -> Savepoint:
        self._require_active("create a savepoint")
        self._savepoint_counter += 1
        label = name if name is not None else f"sp{self._savepoint_counter}"
        point = Savepoint(label, self._savepoint_counter, capture(self.target))
        self._savepoints.append(point)
        return point

    def rollback_to(self, savepoint: Savepoint) -> None:
        self._require_active("roll back to a savepoint")
        index = self._find(savepoint)
        _charge(txn_rollbacks=1)
        restore(self.target, savepoint._mark)
        # restoring consumed the snapshot; re-capture so the savepoint
        # can be rolled back to again
        savepoint._mark = capture(self.target)
        for stale in self._savepoints[index + 1 :]:
            stale.released = True
        del self._savepoints[index + 1 :]
