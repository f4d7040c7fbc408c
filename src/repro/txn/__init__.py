"""Transactional execution for GOOD databases.

The paper's operations can fail at run time (the Section 3.2 undefined
edge addition); this package makes every program run atomic on the
native instance and on both storage engines:

* :mod:`repro.txn.snapshot` — the duck-typed capture/restore protocol
  transactional targets implement;
* :mod:`repro.txn.journal` — O(changes) undo journals: O(1) begin and
  savepoints, rollback by reverse replay (the protocol
  :class:`Transaction` runs on);
* :mod:`repro.txn.transaction` — :class:`Transaction` /
  :class:`Savepoint` with ``commit`` / ``rollback`` / ``rollback_to``,
  structured :class:`FailureReport`\\ s, and the shared
  :func:`atomic_run` driver;
* :mod:`repro.txn.faults` — deterministic fault injection at the Nth
  operation or Nth engine call;
* :mod:`repro.txn.guards` — resource budgets (matching counts, method
  recursion) raising :class:`~repro.core.errors.ResourceLimitError`.
"""

from repro.core.errors import ResourceLimitError, TransactionError
from repro.txn import faults, guards
from repro.txn.faults import FaultInjector, FaultPlan, inject
from repro.txn.guards import ResourceGuard, ResourceLimits, limits
from repro.txn.journal import (
    MISSING,
    InstanceJournal,
    RelationalJournal,
    TarskiJournal,
    UndoJournal,
    supports_journal,
)
from repro.txn.snapshot import OneShotState, capture, is_transactional, restore
from repro.txn.transaction import (
    FailureReport,
    Savepoint,
    Transaction,
    atomic_run,
)

__all__ = [
    "FailureReport",
    "FaultInjector",
    "FaultPlan",
    "InstanceJournal",
    "MISSING",
    "OneShotState",
    "RelationalJournal",
    "ResourceGuard",
    "ResourceLimitError",
    "ResourceLimits",
    "Savepoint",
    "TarskiJournal",
    "Transaction",
    "TransactionError",
    "UndoJournal",
    "atomic_run",
    "capture",
    "faults",
    "guards",
    "inject",
    "is_transactional",
    "limits",
    "restore",
    "supports_journal",
]
