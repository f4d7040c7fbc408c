"""GOOD stored and computed with binary relations (the Tarski engine).

Storage: the entire instance is a family of binary relations —

* ``member`` : oid → class label ("classes as unary predicates curried
  into a binary relation", the Tarski Data Model trick);
* ``value:P`` : oid → print value, one per printable class;
* ``edge:λ`` : src oid → dst oid, one per edge label (functional and
  multivalued alike — functionality is an integrity property, not a
  storage distinction).

Pattern matching: per-node candidate sets are seeded from ``member``
(and ``value:P`` for constants/predicates), then refined by an
arc-consistency loop expressed purely through the algebra of
:mod:`repro.tarski.algebra` (image/preimage = composition with a test
relation), and finally enumerated by backtracking along pattern edges.

The five basic operations are implemented as functional updates of the
relation family.  Experiment S2 checks equivalence with the native
engine on random programs.
"""

from __future__ import annotations

from typing import Any, Dict, FrozenSet, List, Optional, Set, Tuple

from repro.core.errors import BackendError, EdgeConflictError
from repro.core.instance import Instance
from repro.core.macros import RecursiveEdgeAddition
from repro.core.matching import Matching
from repro.core.operations import (
    Abstraction,
    EdgeAddition,
    EdgeDeletion,
    NodeAddition,
    NodeDeletion,
    Operation,
    OperationReport,
)
from repro.core.pattern import NegatedPattern, Pattern
from repro.core.scheme import Scheme
from repro.graph.store import NO_PRINT, Edge
from repro.tarski.algebra import BinaryRelation
from repro.txn import faults as _faults
from repro.txn import guards as _guards
from repro.txn.transaction import atomic_run


class TarskiEngine:
    """A GOOD engine over a family of binary relations."""

    def __init__(self, scheme: Scheme) -> None:
        self.scheme = scheme
        self.member = BinaryRelation()  # (oid, label)
        self.values: Dict[str, BinaryRelation] = {}  # label -> (oid, value)
        self.edges: Dict[str, BinaryRelation] = {}  # edge label -> (src, dst)
        self._next_oid = 0
        # attached undo journals (repro.txn.journal.TarskiJournal);
        # relations update functionally, so journalling a write is just
        # keeping the old (immutable) reference — see _note_* below
        self._journals: list = []

    # ------------------------------------------------------------------
    # conversions
    # ------------------------------------------------------------------
    @classmethod
    def from_instance(cls, instance: Instance, copy_scheme: bool = True) -> "TarskiEngine":
        """Load a native instance into relation form."""
        scheme = instance.scheme.copy() if copy_scheme else instance.scheme
        engine = cls(scheme)
        member_pairs = []
        for node_id in instance.nodes():
            record = instance.node_record(node_id)
            member_pairs.append((node_id, record.label))
            if record.has_print:
                engine.values[record.label] = engine.values.get(
                    record.label, BinaryRelation()
                ).add(node_id, record.print_value)
            engine._next_oid = max(engine._next_oid, node_id + 1)
        engine.member = BinaryRelation(member_pairs)
        edge_pairs: Dict[str, List[Tuple[int, int]]] = {}
        for edge in instance.edges():
            edge_pairs.setdefault(edge.label, []).append((edge.source, edge.target))
        engine.edges = {label: BinaryRelation(pairs) for label, pairs in edge_pairs.items()}
        return engine

    def to_instance(self) -> Instance:
        """Export as a native instance, preserving oids."""
        instance = Instance(self.scheme)
        for oid, label in sorted(self.member, key=lambda pair: pair[0]):
            if self.scheme.is_printable_label(label):
                value = self.print_of(oid)
                instance.add_printable(label, value, _node_id=oid)
            else:
                instance.add_object(label, _node_id=oid)
        for label in sorted(self.edges):
            for src, dst in sorted(self.edges[label], key=lambda pair: (pair[0], pair[1])):
                instance.add_edge(src, label, dst)
        return instance

    def restrict_to(self, scheme: Scheme) -> None:
        """Drop structure not conformant with ``scheme`` (footnote 4)."""
        keep = {
            oid for oid, label in self.member if scheme.has_node_label(label)
        }
        for oid, label in list(self.member):
            if oid not in keep:
                self.delete_node(oid)
        declared = scheme.functional_edge_labels | scheme.multivalued_edge_labels
        for edge_label in list(self.edges):
            if edge_label not in declared:
                self._note_edges(edge_label)
                del self.edges[edge_label]
                continue
            relation = self.edges[edge_label]
            kept = [
                (src, dst)
                for src, dst in relation
                if scheme.allows_edge(self.label_of(src), edge_label, self.label_of(dst))
            ]
            if len(kept) != len(relation):
                self._note_edges(edge_label)
                self.edges[edge_label] = BinaryRelation(kept)
        for journal in list(self._journals):
            journal.note_rebind(self.scheme, scheme)
        self.scheme = scheme

    # ------------------------------------------------------------------
    # transactional target protocol (repro.txn.snapshot)
    # ------------------------------------------------------------------
    def capture_state(self):
        """Opaque full-state snapshot of the relation family.

        :class:`BinaryRelation` values are updated functionally, so the
        snapshot shares them safely; only the dicts are copied.
        """
        return (
            self.scheme,
            self.scheme.copy(),
            self.member,
            dict(self.values),
            dict(self.edges),
            self._next_oid,
        )

    def restore_state(self, state) -> None:
        """Reinstall a :meth:`capture_state` snapshot (reusably)."""
        scheme_object, scheme_copy, member, values, edges, next_oid = state
        scheme_object.restore_from(scheme_copy)
        self.scheme = scheme_object
        self.member = member
        self.values = dict(values)
        self.edges = dict(edges)
        self._next_oid = next_oid

    def state_summary(self) -> Tuple[int, int]:
        """``(node_count, edge_count)`` over the relation family."""
        return (len(self.member), sum(len(relation) for relation in self.edges.values()))

    def check_invariants(self) -> None:
        """Re-validate by exporting to a native (checking) instance."""
        self.to_instance().validate()

    def begin_journal(self):
        """Attach an O(changes) undo journal (:mod:`repro.txn.journal`).

        O(1), and so is every journalled write: relations update
        functionally, so the journal records old immutable references.
        """
        from repro.txn.journal import TarskiJournal

        return TarskiJournal(self)

    def rollback_journal(self, journal, mark) -> None:
        """Reverse-replay ``journal`` back to ``mark``."""
        journal.rollback_to(mark)

    # ------------------------------------------------------------------
    # journal notes: record the *old* relation before a write
    # ------------------------------------------------------------------
    def _note_member(self) -> None:
        for journal in self._journals:
            journal.entries.append(("member", self.member))

    def _note_value(self, label: str) -> None:
        if not self._journals:
            return
        from repro.txn.journal import MISSING

        old = self.values.get(label, MISSING)
        for journal in self._journals:
            journal.entries.append(("value", label, old))

    def _note_edges(self, label: str) -> None:
        if not self._journals:
            return
        from repro.txn.journal import MISSING

        old = self.edges.get(label, MISSING)
        for journal in self._journals:
            journal.entries.append(("edges", label, old))

    # ------------------------------------------------------------------
    # node/edge primitives (functional updates)
    # ------------------------------------------------------------------
    def new_oid(self) -> int:
        """Hand out a fresh oid."""
        oid = self._next_oid
        self._next_oid += 1
        return oid

    def label_of(self, oid: int) -> str:
        """Node label through the ``member`` relation."""
        labels = self.member.successors(oid)
        if not labels:
            raise BackendError(f"unknown oid {oid!r}")
        return next(iter(labels))

    def print_of(self, oid: int) -> Any:
        """Print value through the ``value:P`` relation."""
        label = self.label_of(oid)
        relation = self.values.get(label)
        if relation is None:
            return NO_PRINT
        found = relation.successors(oid)
        return next(iter(found)) if found else NO_PRINT

    def oids_with_label(self, label: str) -> FrozenSet[int]:
        """All oids of a class (preimage of the label atom)."""
        return self.member.predecessors(label)

    def find_printable(self, label: str, value: Any) -> Optional[int]:
        """Lookup a constant via the converse of ``value:P``."""
        relation = self.values.get(label)
        if relation is None:
            return None
        found = relation.predecessors(value)
        return min(found) if found else None

    def create_object(self, label: str) -> int:
        """Insert an object node."""
        oid = self.new_oid()
        if self._journals:
            self._note_member()
        self.member = self.member.add(oid, label)
        return oid

    def get_or_create_printable(self, label: str, value: Any) -> int:
        """The unique printable (label, value), created if absent."""
        found = self.find_printable(label, value)
        if found is not None:
            return found
        oid = self.new_oid()
        if self._journals:
            self._note_member()
            self._note_value(label)
        self.member = self.member.add(oid, label)
        self.values[label] = self.values.get(label, BinaryRelation()).add(oid, value)
        return oid

    def edge_relation(self, label: str) -> BinaryRelation:
        """The (possibly empty) relation of an edge label."""
        return self.edges.get(label, BinaryRelation.empty())

    def add_edge(self, src: int, label: str, dst: int) -> bool:
        """Insert an edge pair; ``False`` if present."""
        relation = self.edge_relation(label)
        if (src, dst) in relation:
            return False
        if self._journals:
            self._note_edges(label)
        self.edges[label] = relation.add(src, dst)
        return True

    def remove_edge(self, src: int, label: str, dst: int) -> bool:
        """Delete an edge pair; ``False`` if absent."""
        relation = self.edge_relation(label)
        if (src, dst) not in relation:
            return False
        if self._journals:
            self._note_edges(label)
        self.edges[label] = relation.remove(src, dst)
        return True

    def delete_node(self, oid: int) -> None:
        """Delete a node and every pair touching it."""
        label = self.label_of(oid)
        if self._journals:
            self._note_member()
        self.member = self.member.remove(oid, label)
        if label in self.values:
            if self._journals:
                self._note_value(label)
            self.values[label] = self.values[label].remove_all_with(oid)
        for edge_label in list(self.edges):
            relation = self.edges[edge_label]
            if not relation.successors(oid) and not relation.predecessors(oid):
                continue
            if self._journals:
                self._note_edges(edge_label)
            self.edges[edge_label] = relation.remove_all_with(oid)

    # ------------------------------------------------------------------
    # pattern matching by arc consistency over the algebra
    # ------------------------------------------------------------------
    def candidates(self, pattern: Pattern) -> Dict[int, FrozenSet[int]]:
        """Arc-consistent per-node candidate sets.

        Seeds each pattern node from ``member`` (plus value lookups)
        and iterates image/preimage refinement along pattern edges
        until a fixpoint.
        """
        candidate: Dict[int, FrozenSet[int]] = {}
        for node_id in pattern.nodes():
            record = pattern.node_record(node_id)
            seed = self.oids_with_label(record.label)
            if record.has_print:
                found = self.find_printable(record.label, record.print_value)
                seed = seed & (frozenset() if found is None else frozenset((found,)))
            predicate = pattern.predicate_of(node_id)
            if predicate is not None:
                relation = self.values.get(record.label, BinaryRelation.empty())
                seed = frozenset(
                    oid
                    for oid in seed
                    if relation.successors(oid) and predicate(next(iter(relation.successors(oid))))
                )
            candidate[node_id] = seed
        edges = [edge.as_tuple() for edge in pattern.edges()]
        changed = True
        while changed:
            changed = False
            for source, label, target in edges:
                relation = self.edge_relation(label)
                narrowed = candidate[source] & relation.preimage(candidate[target])
                if narrowed != candidate[source]:
                    candidate[source] = narrowed
                    changed = True
                narrowed = candidate[target] & relation.image(candidate[source])
                if narrowed != candidate[target]:
                    candidate[target] = narrowed
                    changed = True
        return candidate

    def matchings(self, pattern) -> List[Matching]:
        """All matchings (crossed patterns get negation semantics)."""
        if isinstance(pattern, NegatedPattern):
            positive = self.matchings(pattern.positive)
            shared = list(pattern.positive.nodes())
            blocked: Set[Tuple[int, ...]] = set()
            for extension in pattern.extensions:
                for matching in self.matchings(extension):
                    blocked.add(tuple(matching[node] for node in shared))
            return [
                matching
                for matching in positive
                if tuple(matching[node] for node in shared) not in blocked
            ]
        candidate = self.candidates(pattern)
        nodes = sorted(pattern.nodes(), key=lambda n: (len(candidate[n]), n))
        edges = [edge.as_tuple() for edge in pattern.edges()]
        results: List[Matching] = []
        assignment: Matching = {}

        def consistent(node: int, oid: int) -> bool:
            for source, label, target in edges:
                relation = self.edge_relation(label)
                if source == node and target in assignment:
                    if (oid, assignment[target]) not in relation:
                        return False
                if target == node and source in assignment:
                    if (assignment[source], oid) not in relation:
                        return False
                if source == node and target == node:
                    if (oid, oid) not in relation:
                        return False
            return True

        def backtrack(index: int) -> None:
            if index == len(nodes):
                results.append(dict(assignment))
                return
            node = nodes[index]
            for oid in sorted(candidate[node]):
                if consistent(node, oid):
                    assignment[node] = oid
                    backtrack(index + 1)
                    del assignment[node]

        backtrack(0)
        results.sort(key=lambda m: tuple(m[node] for node in sorted(pattern.nodes())))
        # crossed patterns charge through their recursive sub-calls
        _guards.charge_matchings(len(results))
        return results

    # ------------------------------------------------------------------
    # operations
    # ------------------------------------------------------------------
    def run(self, operations, atomic: bool = True) -> List[OperationReport]:
        """Apply a sequence of operations in order.

        With ``atomic=True`` (the default) any failure rolls the engine
        back to the exact pre-run state (scheme included) before
        re-raising, with a
        :class:`~repro.txn.transaction.FailureReport` attached to the
        exception; ``atomic=False`` preserves the historical
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
            f"the Tarski engine does not execute {type(operation).__name__}"
        )

    def _materialize_constants(self, operation: Operation) -> None:
        patterns = [operation.positive_pattern]
        if isinstance(operation.source_pattern, NegatedPattern):
            patterns.extend(operation.source_pattern.extensions)
        for pattern in patterns:
            for node_id in pattern.nodes():
                record = pattern.node_record(node_id)
                if record.has_print and self.scheme.is_printable_label(record.label):
                    self.get_or_create_printable(record.label, record.print_value)

    def _node_addition(self, op: NodeAddition) -> OperationReport:
        op.extend_scheme(self.scheme)
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
            oid = self.create_object(op.node_label)
            nodes_added.append(oid)
            for (edge_label, _), target in zip(op.edges, targets):
                self.add_edge(oid, edge_label, target)
                edges_added.append(Edge(oid, edge_label, target))
        return OperationReport(
            operation=op.describe(),
            matching_count=len(matchings),
            nodes_added=tuple(nodes_added),
            edges_added=tuple(edges_added),
            reused_count=reused,
        )

    def _existing_addition_node(self, op: NodeAddition, targets: Tuple[int, ...]) -> Optional[int]:
        candidates = self.oids_with_label(op.node_label)
        if not op.edges:
            return min(candidates) if candidates else None
        for (edge_label, _), target in zip(op.edges, targets):
            relation = self.edge_relation(edge_label)
            candidates = candidates & relation.predecessors(target)
            if not candidates:
                return None
        return min(candidates) if candidates else None

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
            if self.add_edge(source, edge_label, target):
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
            existing = self.edge_relation(edge_label).successors(source)
            all_targets = set(existing) | targets
            if self.scheme.is_functional(edge_label) and len(all_targets) > 1:
                raise EdgeConflictError(
                    f"edge addition would give node {source} {len(all_targets)} different "
                    f"{edge_label!r} (functional) edges"
                )
            labels = {self.label_of(t) for t in all_targets}
            if len(labels) > 1:
                raise EdgeConflictError(
                    f"edge addition would give node {source} {edge_label!r}-successors "
                    f"with mixed labels {sorted(labels)!r}"
                )

    def _node_deletion(self, op: NodeDeletion) -> OperationReport:
        self._materialize_constants(op)
        matchings = self.matchings(op.source_pattern)
        victims = sorted({matching[op.node] for matching in matchings})
        for victim in victims:
            if self.member.successors(victim):
                self.delete_node(victim)
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
            if self.remove_edge(source, edge_label, target):
                edges_removed.append(Edge(source, edge_label, target))
        return OperationReport(
            operation=op.describe(),
            matching_count=len(matchings),
            edges_removed=tuple(edges_removed),
        )

    def _abstraction(self, op: Abstraction) -> OperationReport:
        op.extend_scheme(self.scheme)
        self._materialize_constants(op)
        matchings = self.matchings(op.source_pattern)
        matched = sorted({matching[op.node] for matching in matchings})
        alpha = self.edge_relation(op.alpha)
        alpha_set = {x: alpha.successors(x) for x in matched}
        groups: Dict[FrozenSet[int], Set[int]] = {}
        for member in matched:
            groups.setdefault(alpha_set[member], set()).add(member)
        if op.include_unmatched:
            member_label = op.positive_pattern.label_of(op.node)
            for oid in sorted(self.oids_with_label(member_label)):
                key = alpha.successors(oid)
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
            oid = self.create_object(op.set_label)
            nodes_added.append(oid)
            for member in sorted(members):
                self.add_edge(oid, op.beta, member)
                edges_added.append(Edge(oid, op.beta, member))
        return OperationReport(
            operation=op.describe(),
            matching_count=len(matchings),
            nodes_added=tuple(nodes_added),
            edges_added=tuple(edges_added),
            reused_count=reused,
        )

    def _existing_group_node(self, op: Abstraction, members: Set[int]) -> Optional[int]:
        beta = self.edge_relation(op.beta)
        if members:
            candidates = beta.predecessors(min(members)) & self.oids_with_label(op.set_label)
        else:
            candidates = self.oids_with_label(op.set_label)
        for candidate in sorted(candidates):
            if set(beta.successors(candidate)) == members:
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
