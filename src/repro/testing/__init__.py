"""Reference implementations the suites compare production against.

Nothing served imports this package
(``tests/unit/test_production_imports.py`` enforces the fence).  Each
module is the slow, obviously-correct counterpart of one production
mechanism: :mod:`~repro.testing.refstore` of the columnar graph store,
:mod:`~repro.testing.matchers` of the planner-backed matcher,
:mod:`~repro.testing.interpreter` of the compiled plan executor,
:mod:`~repro.testing.fixpoint` of semi-naive rule evaluation,
:mod:`~repro.testing.transactions` of undo-journal transactions,
:mod:`~repro.testing.validation` of the column-wise instance validator.
"""

from repro.testing.fixpoint import run_naive, run_oracle
from repro.testing.interpreter import interpret_plan
from repro.testing.matchers import find_matchings_backtracking, find_matchings_naive
from repro.testing.refstore import ReferenceGraphStore
from repro.testing.transactions import SnapshotTransaction
from repro.testing.validation import validate_per_node

__all__ = [
    "ReferenceGraphStore",
    "SnapshotTransaction",
    "find_matchings_backtracking",
    "find_matchings_naive",
    "interpret_plan",
    "run_naive",
    "run_oracle",
    "validate_per_node",
]
