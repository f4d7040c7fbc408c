"""Method-call orchestration over storage engines (Section 5).

"In this way, GOOD programs (**including methods**) are interpreted by
C programs with embedded SQL statements" — the host program drives the
method mechanism while the engine executes the basic operations.  This
module is that host program, generic over any engine exposing

* ``scheme``            — the engine's evolving scheme,
* ``apply(operation)``  — execute one basic operation,
* ``restrict_to(scheme)`` — drop non-conformant structure (footnote 4),

which both :class:`~repro.storage.engine.RelationalEngine` and
:class:`~repro.tarski.engine.TarskiEngine` provide.  The orchestration
is byte-for-byte the Section 3.6 semantics of
:class:`~repro.core.methods.MethodCall`: context node addition, body
with the context spliced in, context deletion, interface restriction.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Union

from repro.core.methods import (
    ExecutionContext,
    MethodCall,
    MethodRegistry,
    transform_body_op,
)
from repro.core.operations import (
    NodeAddition,
    NodeDeletion,
    Operation,
    OperationReport,
    fresh_tag,
)
from repro.core.pattern import Pattern
from repro.txn import faults as _faults
from repro.txn.transaction import atomic_run

#: Reserved receiver-edge prefix (mirrors repro.core.methods).
RECEIVER_EDGE = "@self"


class EngineMethodRunner:
    """Runs full GOOD programs — method calls included — on an engine."""

    def __init__(
        self,
        engine,
        methods: Optional[MethodRegistry] = None,
        max_depth: int = 200,
    ) -> None:
        self.engine = engine
        self.context = ExecutionContext(methods, max_depth=max_depth)

    def run(
        self,
        operations: Sequence[Union[Operation, MethodCall]],
        atomic: bool = True,
    ) -> List[OperationReport]:
        """Apply a sequence of operations/calls in order.

        With ``atomic=True`` (the default) the program is
        all-or-nothing: any failure rolls the engine back to the exact
        pre-run state (scheme included) before re-raising, with a
        :class:`~repro.txn.transaction.FailureReport` attached to the
        exception.  ``atomic=False`` preserves the historical
        partial-mutation-on-error behavior (the method-call interface
        restriction still cleans ``@call:`` scaffolding out of the
        scheme even then).
        """
        if atomic:
            return atomic_run(self.engine, operations, self.apply)[0]
        reports: List[OperationReport] = []
        for index, operation in enumerate(operations):
            _faults.before_operation(operation, index)
            reports.append(self.apply(operation))
            _faults.after_operation(operation, index)
        return reports

    def apply(self, operation: Union[Operation, MethodCall]) -> OperationReport:
        """Apply one operation, orchestrating method calls here."""
        if isinstance(operation, MethodCall):
            return self._call(operation)
        return self.engine.apply(operation)

    # ------------------------------------------------------------------
    # the Section 3.6 call semantics, engine-side
    # ------------------------------------------------------------------
    def _call(self, call: MethodCall) -> OperationReport:
        method = self.context.methods.get(call.method_name)
        call = call.dispatch_via_isa(method, self.engine.scheme)
        call._check_against(method)
        self.context.enter(call.method_name)
        try:
            return self._execute(call, method)
        finally:
            self.context.leave()

    def _execute(self, call: MethodCall, method) -> OperationReport:
        engine = self.engine
        original_scheme = engine.scheme.copy()
        tag = fresh_tag()
        context_label = f"@call:{call.method_name}#{tag}"
        receiver_edge = f"{RECEIVER_EDGE}#{tag}"

        binding_edges = [(receiver_edge, call.receiver)]
        for param_label in sorted(call.arguments):
            binding_edges.append((param_label, call.arguments[param_label]))
        context_na = NodeAddition(
            call.source_pattern, context_label, binding_edges, _internal=True
        )
        na_report = engine.apply(context_na)
        sub_reports: List[OperationReport] = [na_report]

        try:
            if na_report.nodes_added:
                for body_op in method.body:
                    transformed = transform_body_op(
                        body_op, context_label, receiver_edge, engine.scheme
                    )
                    sub_reports.append(self.apply(transformed))
                cleanup_pattern = Pattern(engine.scheme)
                context_node = cleanup_pattern.add_object(context_label)
                sub_reports.append(engine.apply(NodeDeletion(cleanup_pattern, context_node)))
        finally:
            # a raising body op must not leak @call:/@self scaffolding
            # into the engine scheme — the interface restriction always
            # runs, even on the failure path
            engine.restrict_to(original_scheme.union(method.interface))
        return OperationReport(
            operation=call.describe(),
            matching_count=na_report.matching_count,
            sub_reports=tuple(sub_reports),
        )
