"""The relational GOOD engine (Section 5).

:class:`RelationalEngine` executes GOOD operations against the
relational layout: matchings come from the join-plan compiler of
:mod:`repro.storage.query` and transformations are insert/update/delete
batches — the architecture the paper describes for the University of
Antwerp prototype ("GOOD programs ... are interpreted by C programs
with embedded SQL statements").

The engine re-uses the *operation objects* of
:mod:`repro.core.operations` as the logical description of what to do,
and implements the same snapshot semantics.  Supported: the five basic
operations and the starred edge addition.  Method calls are
orchestration (the paper runs them in the C host program, not in SQL);
run them on the native engine, or convert with
:meth:`RelationalEngine.to_instance`.

Experiment S1 proves the engine equivalent (up to isomorphism) to the
native graph engine on randomly generated programs.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, List, Optional, Set, Tuple

from repro.core.errors import BackendError, EdgeConflictError
from repro.core.instance import Instance
from repro.core.macros import RecursiveEdgeAddition
from repro.core.operations import (
    Abstraction,
    EdgeAddition,
    EdgeDeletion,
    NodeAddition,
    NodeDeletion,
    Operation,
    OperationReport,
)
from repro.core.pattern import NegatedPattern
from repro.core.scheme import Scheme
from repro.graph.store import Edge
from repro.storage.layout import GoodLayout, NODES
from repro.storage.query import execute_any
from repro.txn import faults as _faults
from repro.txn import guards as _guards
from repro.txn.transaction import atomic_run


class RelationalEngine:
    """GOOD on relations: pattern matching by joins, updates by DML."""

    def __init__(self, scheme: Scheme, layout: Optional[GoodLayout] = None) -> None:
        self.scheme = scheme
        self.layout = layout if layout is not None else GoodLayout(scheme)
        if self.layout.scheme is not scheme:
            self.layout.scheme = scheme

    @classmethod
    def from_instance(cls, instance: Instance, copy_scheme: bool = True) -> "RelationalEngine":
        """Load a native instance (scheme copied by default)."""
        scheme = instance.scheme.copy() if copy_scheme else instance.scheme
        layout = GoodLayout.from_instance(instance.copy(scheme=scheme))
        return cls(scheme, layout)

    def to_instance(self) -> Instance:
        """Export the current state as a native instance."""
        return self.layout.to_instance()

    def restrict_to(self, scheme: Scheme) -> None:
        """Drop structure not conformant with ``scheme`` (footnote 4).

        Nodes of undeclared classes go (with cascades); functional
        columns and multivalued rows whose property triples are not in
        the new scheme's P are cleared.  The engine is rebound to
        ``scheme``.  This is what the method orchestration uses for the
        Figs. 23–25 interface filtering.
        """
        from repro.storage.layout import class_table, mv_table

        directory = self.layout.db.table("nodes")
        for row in list(directory.rows()):
            if not scheme.has_node_label(row["label"]):
                self.layout.delete_node(row["oid"])
        for label in sorted(self.scheme.object_labels):
            name = class_table(label)
            if not self.layout.db.has_table(name) or not scheme.is_object_label(label):
                continue
            table = self.layout.db.table(name)
            for column in list(table.columns):
                if column == "oid":
                    continue
                if column not in scheme.functional_edge_labels:
                    for row in list(table.rows()):
                        if row[column] is not None:
                            table.update(row["oid"], {column: None})
                    continue
                for row in list(table.rows()):
                    target = row[column]
                    if target is None:
                        continue
                    triple = (label, column, self.layout.label_of(target))
                    if not scheme.allows_edge(*triple):
                        table.update(row["oid"], {column: None})
        for mv_label in sorted(self.scheme.multivalued_edge_labels):
            name = mv_table(mv_label)
            if not self.layout.db.has_table(name):
                continue
            table = self.layout.db.table(name)
            if mv_label not in scheme.multivalued_edge_labels:
                table.delete_where(lambda row: True)
                continue
            table.delete_where(
                lambda row: not scheme.allows_edge(
                    self.layout.label_of(row["src"]), mv_label, self.layout.label_of(row["dst"])
                )
            )
        if self.layout.db._journals:
            for journal in list(self.layout.db._journals):
                journal.note_rebind(self.scheme, scheme)
        self.scheme = scheme
        self.layout.scheme = scheme

    # ------------------------------------------------------------------
    # transactional target protocol (repro.txn.snapshot)
    # ------------------------------------------------------------------
    def capture_state(self):
        """Opaque full-state snapshot (scheme + relational store)."""
        from repro.txn.snapshot import OneShotState

        return (
            self.scheme,
            self.scheme.copy(),
            OneShotState(self.layout.db.copy()),
            self.layout._next_oid,
        )

    def restore_state(self, state) -> None:
        """Reinstall a :meth:`capture_state` snapshot (consuming it).

        The scheme object held by callers at capture time is restored
        in place and rebound, so patterns referencing it see the
        rollback even across ``restrict_to`` rebinding.  The captured
        database is installed directly — no second copy — consuming
        the snapshot (re-capture before restoring it again).
        """
        scheme_object, scheme_copy, db_state, next_oid = state
        db = db_state.take()
        scheme_object.restore_from(scheme_copy)
        self.scheme = scheme_object
        self.layout.scheme = scheme_object
        self.layout.db = db
        self.layout._next_oid = next_oid

    def state_summary(self) -> Tuple[int, int]:
        """``(node_count, edge_count)`` over the relational layout."""
        nodes = self.layout.db.table(NODES).count()
        edges = 0
        for name in self.layout.db.table_names():
            table = self.layout.db.table(name)
            if name.startswith("class:"):
                for row in table.rows():
                    edges += sum(
                        1 for column in table.columns if column != "oid" and row[column] is not None
                    )
            elif name.startswith("mv:"):
                edges += table.count()
        return (nodes, edges)

    def check_invariants(self) -> None:
        """Re-validate by exporting to a native (checking) instance."""
        self.to_instance().validate()

    def begin_journal(self):
        """Attach an O(changes) undo journal (:mod:`repro.txn.journal`).

        O(1): no database copy, no scheme copy.  Table mutations take
        copy-on-first-write pre-images (per watermark segment), so a
        rollback costs O(dirty tables) instead of O(database).
        """
        from repro.txn.journal import RelationalJournal

        return RelationalJournal(self)

    def rollback_journal(self, journal, mark) -> None:
        """Reverse-replay ``journal`` back to ``mark``."""
        journal.rollback_to(mark)

    # ------------------------------------------------------------------
    # execution
    # ------------------------------------------------------------------
    def run(self, operations, atomic: bool = True) -> List[OperationReport]:
        """Apply a sequence of operations in order.

        With ``atomic=True`` (the default) the whole sequence is
        all-or-nothing: any failure rolls the engine back to the exact
        pre-run state (scheme included) before re-raising, with a
        :class:`~repro.txn.transaction.FailureReport` attached to the
        exception.  ``atomic=False`` preserves the historical
        partial-mutation-on-error behavior.
        """
        if atomic:
            return atomic_run(self, operations, self.apply)[0]
        reports: List[OperationReport] = []
        for index, operation in enumerate(operations):
            _faults.before_operation(operation, index)
            reports.append(self.apply(operation))
            _faults.after_operation(operation, index)
        return reports

    def apply(self, operation: Operation) -> OperationReport:
        """Apply one operation; dispatch on its type."""
        _faults.on_engine_call(self, operation)
        if isinstance(operation, NodeAddition):
            return self._node_addition(operation)
        if isinstance(operation, RecursiveEdgeAddition):
            return self._recursive_edge_addition(operation)
        if isinstance(operation, EdgeAddition):
            return self._edge_addition(operation)
        if isinstance(operation, NodeDeletion):
            return self._node_deletion(operation)
        if isinstance(operation, EdgeDeletion):
            return self._edge_deletion(operation)
        if isinstance(operation, Abstraction):
            return self._abstraction(operation)
        raise BackendError(
            f"the relational engine does not execute {type(operation).__name__} "
            "(method calls are host-program orchestration; see the module docstring)"
        )

    def matchings(self, pattern) -> List[Dict[int, int]]:
        """All matchings via the compiled join plan."""
        found = execute_any(pattern, self.layout)
        _guards.charge_matchings(len(found))
        return found

    # ------------------------------------------------------------------
    # the five operations as DML batches
    # ------------------------------------------------------------------
    def _materialize_constants(self, operation: Operation) -> None:
        patterns = [operation.positive_pattern]
        if isinstance(operation.source_pattern, NegatedPattern):
            patterns.extend(operation.source_pattern.extensions)
        for pattern in patterns:
            for node_id in pattern.nodes():
                record = pattern.node_record(node_id)
                if record.has_print and self.scheme.is_printable_label(record.label):
                    self.layout.get_or_create_printable(record.label, record.print_value)

    def _node_addition(self, op: NodeAddition) -> OperationReport:
        op.extend_scheme(self.scheme)
        self.layout.ensure_class(op.node_label)
        for edge_label, _ in op.edges:
            self.layout.ensure_column(op.node_label, edge_label)
        self._materialize_constants(op)
        matchings = self.matchings(op.source_pattern)
        nodes_added: List[int] = []
        edges_added: List[Edge] = []
        reused = 0
        for matching in matchings:
            targets = tuple(matching[m] for _, m in op.edges)
            if self._existing_addition_node(op, targets) is not None:
                reused += 1
                continue
            oid = self.layout.create_object(op.node_label)
            nodes_added.append(oid)
            for (edge_label, _), target in zip(op.edges, targets):
                self.layout.set_functional(oid, edge_label, target)
                edges_added.append(Edge(oid, edge_label, target))
        return OperationReport(
            operation=op.describe(),
            matching_count=len(matchings),
            nodes_added=tuple(nodes_added),
            edges_added=tuple(edges_added),
            reused_count=reused,
        )

    def _existing_addition_node(self, op: NodeAddition, targets: Tuple[int, ...]) -> Optional[int]:
        table = self.layout.ensure_class(op.node_label)
        if not op.edges:
            rows = list(table.rows())
            return rows[0]["oid"] if rows else None
        first_label = op.edges[0][0]
        candidates = [row for row in table.lookup(first_label, targets[0])]
        for (edge_label, _), target in list(zip(op.edges, targets))[1:]:
            candidates = [row for row in candidates if row.get(edge_label) == target]
            if not candidates:
                return None
        return min(row["oid"] for row in candidates) if candidates else None

    def _edge_addition(self, op: EdgeAddition) -> OperationReport:
        op.extend_scheme(self.scheme)
        self._materialize_constants(op)
        matchings = self.matchings(op.source_pattern)
        planned: List[Tuple[int, str, int]] = []
        seen: Set[Tuple[int, str, int]] = set()
        for matching in matchings:
            for source, edge_label, target in op.edges:
                concrete = (matching[source], edge_label, matching[target])
                if concrete not in seen:
                    seen.add(concrete)
                    planned.append(concrete)
        self._check_edge_consistency(planned)
        edges_added: List[Edge] = []
        for source, edge_label, target in planned:
            if self.scheme.is_functional(edge_label):
                current = self.layout.functional_target(source, edge_label)
                if current == target:
                    continue
                self.layout.set_functional(source, edge_label, target)
                edges_added.append(Edge(source, edge_label, target))
            else:
                if self.layout.add_mv(source, edge_label, target):
                    edges_added.append(Edge(source, edge_label, target))
        return OperationReport(
            operation=op.describe(),
            matching_count=len(matchings),
            edges_added=tuple(edges_added),
        )

    def _check_edge_consistency(self, planned: List[Tuple[int, str, int]]) -> None:
        combined: Dict[Tuple[int, str], Set[int]] = {}
        for source, edge_label, target in planned:
            combined.setdefault((source, edge_label), set()).add(target)
        for (source, edge_label), targets in sorted(combined.items()):
            if self.scheme.is_functional(edge_label):
                existing = self.layout.functional_target(source, edge_label)
                all_targets = set(targets)
                if existing is not None:
                    all_targets.add(existing)
                if len(all_targets) > 1:
                    raise EdgeConflictError(
                        f"edge addition would give node {source} {len(all_targets)} different "
                        f"{edge_label!r} (functional) edges"
                    )
            else:
                existing_targets = set(self.layout.mv_targets(source, edge_label))
                labels = {self.layout.label_of(t) for t in (existing_targets | targets)}
                if len(labels) > 1:
                    raise EdgeConflictError(
                        f"edge addition would give node {source} {edge_label!r}-successors "
                        f"with mixed labels {sorted(labels)!r}"
                    )

    def _node_deletion(self, op: NodeDeletion) -> OperationReport:
        self._materialize_constants(op)
        matchings = self.matchings(op.source_pattern)
        victims = sorted({matching[op.node] for matching in matchings})
        edges_removed = 0
        for victim in victims:
            if self.layout.has_node(victim):
                edges_removed += self.layout.delete_node(victim)
        return OperationReport(
            operation=op.describe(),
            matching_count=len(matchings),
            nodes_removed=tuple(victims),
        )

    def _edge_deletion(self, op: EdgeDeletion) -> OperationReport:
        self._materialize_constants(op)
        matchings = self.matchings(op.source_pattern)
        victims: Set[Tuple[int, str, int]] = set()
        for matching in matchings:
            for source, edge_label, target in op.edges:
                victims.add((matching[source], edge_label, matching[target]))
        edges_removed: List[Edge] = []
        for source, edge_label, target in sorted(victims):
            if self.scheme.is_functional(edge_label):
                if self.layout.functional_target(source, edge_label) == target:
                    self.layout.set_functional(source, edge_label, None)
                    edges_removed.append(Edge(source, edge_label, target))
            else:
                if self.layout.remove_mv(source, edge_label, target):
                    edges_removed.append(Edge(source, edge_label, target))
        return OperationReport(
            operation=op.describe(),
            matching_count=len(matchings),
            edges_removed=tuple(edges_removed),
        )

    def _abstraction(self, op: Abstraction) -> OperationReport:
        op.extend_scheme(self.scheme)
        self.layout.ensure_class(op.set_label)
        self.layout.ensure_mv(op.beta)
        self._materialize_constants(op)
        matchings = self.matchings(op.source_pattern)
        matched = sorted({matching[op.node] for matching in matchings})
        alpha_set = {x: frozenset(self.layout.mv_targets(x, op.alpha)) for x in matched}
        groups: Dict[FrozenSet[int], Set[int]] = {}
        for member in matched:
            groups.setdefault(alpha_set[member], set()).add(member)
        if op.include_unmatched:
            member_label = op.positive_pattern.label_of(op.node)
            for oid in self.layout.oids_with_label(member_label):
                key = frozenset(self.layout.mv_targets(oid, op.alpha))
                if key in groups:
                    groups[key].add(oid)
        nodes_added: List[int] = []
        edges_added: List[Edge] = []
        reused = 0
        for key in sorted(groups, key=lambda k: tuple(sorted(k))):
            members = groups[key]
            if self._existing_group_node(op, members) is not None:
                reused += 1
                continue
            oid = self.layout.create_object(op.set_label)
            nodes_added.append(oid)
            for member in sorted(members):
                self.layout.add_mv(oid, op.beta, member)
                edges_added.append(Edge(oid, op.beta, member))
        return OperationReport(
            operation=op.describe(),
            matching_count=len(matchings),
            nodes_added=tuple(nodes_added),
            edges_added=tuple(edges_added),
            reused_count=reused,
        )

    def _existing_group_node(self, op: Abstraction, members: Set[int]) -> Optional[int]:
        if members:
            some = min(members)
            candidates = [
                oid
                for oid in self.layout.mv_sources(some, op.beta)
                if self.layout.label_of(oid) == op.set_label
            ]
        else:
            candidates = self.layout.oids_with_label(op.set_label)
        for candidate in sorted(candidates):
            if set(self.layout.mv_targets(candidate, op.beta)) == members:
                return candidate
        return None

    def _recursive_edge_addition(self, op: RecursiveEdgeAddition) -> OperationReport:
        sub_reports: List[OperationReport] = []
        edges_added: List[Edge] = []
        while True:
            report = self._edge_addition(op.edge_addition)
            sub_reports.append(report)
            if not report.edges_added:
                break
            edges_added.extend(report.edges_added)
        return OperationReport(
            operation=f"EA*[{op.edge_addition.describe()} x{len(sub_reports)}]",
            matching_count=sub_reports[0].matching_count,
            edges_added=tuple(edges_added),
            sub_reports=tuple(sub_reports),
        )
