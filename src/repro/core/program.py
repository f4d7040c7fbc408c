"""GOOD programs: sequences of operations plus a method registry.

"Given an arbitrary GOOD program, i.e. a sequence of GOOD operations"
(Section 3.2) — :class:`Program` is that sequence, together with the
methods its calls may reference.  Running a program applies each
operation in order ("basic operations are applied in a predetermined
order ... and work on every matching of the pattern, in parallel",
Section 5), producing a new instance (a transformation of the database
graph) and a trace of per-operation reports.

Whether the resulting instance replaces the original (update) or is a
temporary entity (query) is the caller's choice: pass ``in_place=True``
to mutate, or keep the default copy-on-run semantics.

In-place runs are **atomic by default**: Section 3.2 makes edge
addition fail at run time, and a mid-program failure must not leave the
database partially transformed.  A failure rolls the instance (and its
scheme) back to the exact pre-run state via :mod:`repro.txn` and
re-raises with a :class:`~repro.txn.transaction.FailureReport` attached
to the exception; ``atomic=False`` is the escape hatch preserving the
historical partial-mutation-on-error behavior.  An atomic run's result
carries its committed journal (:attr:`ProgramResult.journal`): the
served write path logs it as the redo record, and update mode keeps it
as the undo frame.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, List, Optional, Sequence, Tuple, Union

from repro.core.instance import Instance
from repro.core.methods import ExecutionContext, Method, MethodCall, MethodRegistry
from repro.core.operations import Operation, OperationReport
from repro.txn import faults as _faults
from repro.txn.transaction import atomic_run


@dataclass
class ProgramResult:
    """The outcome of running a program.

    ``journal`` is the committed undo journal of an atomic run
    (:mod:`repro.txn.journal`), ``None`` for ``atomic=False``.
    """

    instance: Instance
    reports: Tuple[OperationReport, ...]
    journal: Any = None

    def summary(self) -> str:
        """Multi-line, one report summary per executed operation."""
        return "\n".join(report.summary() for report in self.reports)


class Program:
    """An executable sequence of GOOD operations."""

    def __init__(
        self,
        operations: Sequence[Union[Operation, MethodCall]] = (),
        methods: Optional[Union[MethodRegistry, Sequence[Method]]] = None,
    ) -> None:
        self.operations: List[Union[Operation, MethodCall]] = list(operations)
        if isinstance(methods, MethodRegistry):
            self.methods = methods
        else:
            self.methods = MethodRegistry(methods or ())

    def add(self, operation: Union[Operation, MethodCall]) -> "Program":
        """Append one operation; returns ``self`` for chaining."""
        self.operations.append(operation)
        return self

    def register(self, method: Method) -> "Program":
        """Register a method; returns ``self`` for chaining."""
        self.methods.register(method)
        return self

    def run(
        self,
        instance: Instance,
        in_place: bool = False,
        context: Optional[ExecutionContext] = None,
        max_depth: int = 200,
        atomic: bool = True,
    ) -> ProgramResult:
        """Execute all operations in order.

        By default both the instance and its scheme are copied first,
        so the caller's database is untouched (query mode); with
        ``in_place=True`` the transformation is applied destructively
        (update mode).  ``context`` may carry a pre-built registry; the
        program's own methods are layered on top of it.

        With ``atomic=True`` (the default) a mid-program failure rolls
        the working instance back to its exact pre-run state — scheme
        included — before re-raising, with a
        :class:`~repro.txn.transaction.FailureReport` attached to the
        exception.  In copy mode this simply discards the copy; in
        in-place mode it protects the caller's database from partial
        transformation.  ``atomic=False`` preserves the historical
        leave-partial-state-on-error behavior.
        """
        if context is None:
            context = ExecutionContext(self.methods, max_depth=max_depth)
        else:
            for name in self.methods.names():
                context.methods.register(self.methods.get(name))
        if in_place:
            working = instance
        else:
            working = instance.copy(scheme=instance.scheme.copy())
        if atomic:
            reports, journal = atomic_run(
                working,
                self.operations,
                lambda operation: operation.apply(working, context),
            )
            return ProgramResult(working, tuple(reports), journal)
        reports: List[OperationReport] = []
        for index, operation in enumerate(self.operations):
            _faults.before_operation(operation, index)
            reports.append(operation.apply(working, context))
            _faults.after_operation(operation, index)
        return ProgramResult(working, tuple(reports))

    def __len__(self) -> int:
        return len(self.operations)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        kinds = ", ".join(op.kind for op in self.operations)
        return f"Program([{kinds}])"


def run_operation(
    operation: Union[Operation, MethodCall],
    instance: Instance,
    methods: Optional[MethodRegistry] = None,
    in_place: bool = False,
    atomic: bool = True,
) -> ProgramResult:
    """Run a single operation as a one-step program."""
    return Program([operation], methods).run(
        instance, in_place=in_place, atomic=atomic
    )
