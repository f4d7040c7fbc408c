"""Object base instances (Section 2).

An object base instance over a scheme ``S`` is a labeled graph
``I = (N, E)`` subject to the paper's constraints:

1. every node label is in ``OL ∪ POL``; nodes labeled in ``POL`` may
   additionally carry a *print* label, which must be a constant of the
   printable class's domain;
2. every edge ``(m, α, n)`` satisfies ``(λ(m), α, λ(n)) ∈ P``;
3. all ``α``-successors of a node carry the same label, and if ``α`` is
   functional there is at most one such successor;
4. two printable nodes with equal label and equal print value are the
   same node (value uniqueness).

:class:`Instance` wraps a :class:`~repro.graph.store.GraphStore` and
enforces these constraints on every mutation, so an instance can never
silently drift out of conformance.  Patterns are syntactically
instances and therefore reuse this class (see
:mod:`repro.core.pattern`).
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Any, FrozenSet, Iterator, Optional, Tuple

from repro.core.errors import InstanceError
from repro.core.scheme import Scheme
from repro.graph.store import NO_PRINT, Delta, Edge, GraphStore, NodeRecord


class Instance:
    """A scheme-conformant object base instance."""

    def __init__(self, scheme: Scheme, _store: Optional[GraphStore] = None) -> None:
        self._scheme = scheme
        self._store = _store if _store is not None else GraphStore()
        # attached undo journals (repro.txn.journal), notified when the
        # scheme *binding* changes (restrict_to); store-level mutations
        # reach them through the store's own journal hooks
        self._journals: list = []

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    def add_object(self, label: str, _node_id: Optional[int] = None) -> int:
        """Create a node of an object class; return its id.

        ``_node_id`` is internal (crossed-pattern id alignment).
        """
        if not self._scheme.is_object_label(label):
            raise InstanceError(f"{label!r} is not an object label of the scheme")
        return self._store.add_node(label, node_id=_node_id)

    def add_printable(self, label: str, value: Any = NO_PRINT, _node_id: Optional[int] = None) -> int:
        """Create a printable node, optionally valued; return its id.

        Raises :class:`InstanceError` if a node with this label and
        value already exists (constraint 4).  Use :meth:`printable` to
        get-or-create instead.  ``_node_id`` is internal (id-preserving
        reconstruction from storage backends).
        """
        if not self._scheme.is_printable_label(label):
            raise InstanceError(f"{label!r} is not a printable label of the scheme")
        if value is not NO_PRINT:
            value = self._scheme.domain_of(label).check(value)
            if self._store.nodes_with_print(label, value):
                raise InstanceError(f"a {label!r} node with print value {value!r} already exists")
        return self._store.add_node(label, value, node_id=_node_id)

    def printable(self, label: str, value: Any) -> int:
        """Get-or-create the unique printable node (label, value)."""
        if not self._scheme.is_printable_label(label):
            raise InstanceError(f"{label!r} is not a printable label of the scheme")
        value = self._scheme.domain_of(label).check(value)
        existing = self._store.nodes_with_print(label, value)
        if existing:
            return min(existing)
        return self._store.add_node(label, value)

    def add_node(self, label: str, value: Any = NO_PRINT) -> int:
        """Create a node of either kind (dispatching on the label)."""
        if self._scheme.is_printable_label(label):
            return self.add_printable(label, value)
        if value is not NO_PRINT:
            raise InstanceError(f"object node {label!r} cannot carry a print value")
        return self.add_object(label)

    def add_edge(self, source: int, edge_label: str, target: int) -> bool:
        """Insert an edge, enforcing constraints 2 and 3.

        Returns ``False`` when the edge already exists.
        """
        violation = self.edge_violation(source, edge_label, target)
        if violation is not None:
            raise InstanceError(violation)
        return self._store.add_edge(source, edge_label, target)

    def edge_violation(self, source: int, edge_label: str, target: int) -> Optional[str]:
        """Explain why the edge may not be added, or ``None`` if it may.

        An already-present edge is not a violation (adding it again is
        a no-op).  This check is the paper's "limited run-time check"
        for edge additions, shared with :class:`EdgeAddition`.
        """
        source_label = self._store.label_of(source)
        target_label = self._store.label_of(target)
        if not self._scheme.allows_edge(source_label, edge_label, target_label):
            return (
                f"edge ({source_label!r}, {edge_label!r}, {target_label!r}) "
                "is not permitted by the scheme"
            )
        current = self._store.out_neighbours(source, edge_label)
        if target in current:
            return None
        if current:
            existing_label = self._store.label_of(next(iter(current)))
            if self._scheme.is_functional(edge_label):
                return (
                    f"functional edge {edge_label!r} already leaves node {source} "
                    f"(towards a {existing_label!r} node)"
                )
            if existing_label != target_label:
                return (
                    f"α-successors of node {source} under {edge_label!r} would mix labels "
                    f"{existing_label!r} and {target_label!r}"
                )
        return None

    def set_print(self, node_id: int, value: Any) -> None:
        """Attach or replace a printable node's print value."""
        label = self._store.label_of(node_id)
        if not self._scheme.is_printable_label(label):
            raise InstanceError(f"node {node_id} is not printable")
        if value is not NO_PRINT:
            value = self._scheme.domain_of(label).check(value)
            clash = self._store.nodes_with_print(label, value) - {node_id}
            if clash:
                raise InstanceError(f"a {label!r} node with print value {value!r} already exists")
        self._store.set_print(node_id, value)

    def remove_node(self, node_id: int) -> None:
        """Delete a node and all incident edges."""
        self._store.remove_node(node_id)

    def remove_edge(self, source: int, edge_label: str, target: int) -> bool:
        """Delete an edge; returns ``False`` if absent."""
        return self._store.remove_edge(source, edge_label, target)

    # ------------------------------------------------------------------
    # read access
    # ------------------------------------------------------------------
    @property
    def scheme(self) -> Scheme:
        """The scheme this instance conforms to."""
        return self._scheme

    @property
    def store(self) -> GraphStore:
        """The underlying graph store (treat as read-only)."""
        return self._store

    def nodes(self) -> Iterator[int]:
        """Node ids in ascending order."""
        return self._store.nodes()

    def edges(self) -> Iterator[Edge]:
        """All edges, deterministically ordered."""
        return self._store.edges()

    def node_record(self, node_id: int) -> NodeRecord:
        """The :class:`NodeRecord` of ``node_id``."""
        return self._store.node(node_id)

    def label_of(self, node_id: int) -> str:
        """The label of ``node_id``."""
        return self._store.label_of(node_id)

    def print_of(self, node_id: int) -> Any:
        """The print value of ``node_id`` (or ``NO_PRINT``)."""
        return self._store.print_of(node_id)

    def is_printable_node(self, node_id: int) -> bool:
        """Whether ``node_id`` belongs to a printable class."""
        return self._scheme.is_printable_label(self._store.label_of(node_id))

    def has_node(self, node_id: int) -> bool:
        """Whether ``node_id`` exists."""
        return self._store.has_node(node_id)

    def has_edge(self, source: int, edge_label: str, target: int) -> bool:
        """Whether the edge exists."""
        return self._store.has_edge(source, edge_label, target)

    def nodes_with_label(self, label: str) -> FrozenSet[int]:
        """All nodes of class ``label``."""
        return self._store.nodes_with_label(label)

    def find_printable(self, label: str, value: Any) -> Optional[int]:
        """The unique printable node (label, value), or ``None``."""
        found = self._store.nodes_with_print(label, value)
        return min(found) if found else None

    def out_neighbours(self, node_id: int, edge_label: str) -> FrozenSet[int]:
        """Targets of ``edge_label`` edges from ``node_id``."""
        return self._store.out_neighbours(node_id, edge_label)

    def in_neighbours(self, node_id: int, edge_label: str) -> FrozenSet[int]:
        """Sources of ``edge_label`` edges into ``node_id``."""
        return self._store.in_neighbours(node_id, edge_label)

    def edges_with_label(self, edge_label: str) -> FrozenSet[Tuple[int, int]]:
        """All ``(source, target)`` pairs carrying ``edge_label``."""
        return self._store.edges_with_label(edge_label)

    def functional_target(self, node_id: int, edge_label: str) -> Optional[int]:
        """The unique α-successor for a functional label, or ``None``."""
        targets = self._store.out_neighbours(node_id, edge_label)
        if not targets:
            return None
        return next(iter(targets))

    @property
    def node_count(self) -> int:
        """Number of nodes."""
        return self._store.node_count

    @property
    def edge_count(self) -> int:
        """Number of edges."""
        return self._store.edge_count

    @property
    def generation(self) -> int:
        """The store's monotone mutation counter."""
        return self._store.generation

    # ------------------------------------------------------------------
    # change tracking (semi-naive evaluation support)
    # ------------------------------------------------------------------
    @contextmanager
    def track_changes(self) -> Iterator[Delta]:
        """Record all additions inside the ``with`` block into a delta.

        ::

            with instance.track_changes() as delta:
                operation.apply(instance)
            # delta.nodes / delta.edges now hold what was added

        The delta is the seed set for
        :func:`repro.core.matching.find_matchings_delta` — the matcher
        behind the semi-naive rule engine.  Tracking attaches to the
        *current* store, so the block must not swap the store out (a
        transaction rollback mid-block detaches the recorder safely:
        the delta simply stops receiving changes).
        """
        store = self._store
        delta = store.start_tracking()
        try:
            yield delta
        finally:
            # detach from the store tracking started on, even if a
            # rollback swapped ``self._store`` out mid-block
            store.stop_tracking(delta)

    # ------------------------------------------------------------------
    # whole-instance operations
    # ------------------------------------------------------------------
    def copy(self, scheme: Optional[Scheme] = None) -> "Instance":
        """Copy the instance (optionally rebinding to a scheme copy)."""
        return Instance(scheme if scheme is not None else self._scheme, self._store.copy())

    # ------------------------------------------------------------------
    # transactional target protocol (repro.txn.snapshot)
    # ------------------------------------------------------------------
    def capture_state(self) -> Tuple[Scheme, Scheme, "OneShotState"]:
        """Opaque full-state snapshot for the transaction layer.

        Keeps a reference to the *current scheme object* alongside its
        copy so :meth:`restore_state` can restore that object in place
        — patterns and sessions holding it then see the rollback.
        """
        from repro.txn.snapshot import OneShotState

        return (self._scheme, self._scheme.copy(), OneShotState(self._store.copy()))

    def restore_state(self, state: Tuple[Scheme, Scheme, "OneShotState"]) -> None:
        """Reinstall a :meth:`capture_state` snapshot (consuming it).

        The captured store is installed *directly* — no second copy —
        so a single rollback pays one copy total (at capture).  The
        snapshot is thereby consumed; restoring it again raises (the
        transaction layer re-captures when a savepoint is reused).
        """
        scheme_object, scheme_copy, store_state = state
        store = store_state.take()
        scheme_object.restore_from(scheme_copy)
        self._scheme = scheme_object
        self._store = store

    def state_summary(self) -> Tuple[int, int]:
        """``(node_count, edge_count)`` — cheap census for reports."""
        return (self._store.node_count, self._store.edge_count)

    def check_invariants(self) -> None:
        """Re-validate every Section 2 constraint (alias of validate)."""
        self.validate()

    def begin_journal(self) -> "InstanceJournal":
        """Attach an O(changes) undo journal (:mod:`repro.txn.journal`).

        O(1): no store copy, no scheme copy.  The returned journal
        records inverse operations for every subsequent mutation until
        closed; :class:`~repro.txn.transaction.Transaction` prefers
        this over :meth:`capture_state` whenever available.
        """
        from repro.txn.journal import InstanceJournal

        return InstanceJournal(self)

    def rollback_journal(self, journal: "InstanceJournal", mark) -> None:
        """Reverse-replay ``journal`` back to ``mark`` (O(changes))."""
        journal.rollback_to(mark)

    def restrict_to(self, scheme: Scheme) -> None:
        """Drop all nodes and edges not conformant with ``scheme``.

        This implements the paper's "Ik+1 restricted to S'" step of the
        method-call semantics (footnote 4: the largest subinstance that
        is an instance over S').  The instance is rebound to ``scheme``.
        """
        for node_id in list(self._store.nodes()):
            if not scheme.has_node_label(self._store.label_of(node_id)):
                self._store.remove_node(node_id)
        for edge in list(self._store.edges()):
            triple = (
                self._store.label_of(edge.source),
                edge.label,
                self._store.label_of(edge.target),
            )
            if triple[1] not in scheme.functional_edge_labels and triple[1] not in scheme.multivalued_edge_labels:
                self._store.remove_edge(*edge.as_tuple())
            elif not scheme.allows_edge(*triple):
                self._store.remove_edge(*edge.as_tuple())
        if self._journals:
            for journal in list(self._journals):
                journal.note_rebind(self._scheme, scheme)
        self._scheme = scheme

    def validate(self) -> None:
        """Re-check every instance constraint from scratch, per column.

        The constraints are properties of sets of nodes and edges, so
        each is checked once per column rather than once per node: node
        labels once per label in use, print values once per
        ``(label, value)`` bucket (a bucket of more than one node breaks
        value uniqueness), and edges once per edge label on its forward
        CSR, where a functional label needs every source's span to hold
        one target, each span's targets must share a label, and the
        scheme is asked once per distinct (source label, target label)
        pair.  Reads no per-node neighbour set and charges no counter.
        The node-by-node formulation lives on as a test oracle
        (``validate_per_node``), which property tests hold this to.
        """
        scheme, store = self._scheme, self._store
        undeclared = [label for label in store.labels_in_use() if not scheme.has_node_label(label)]
        if undeclared:
            node_id, label = min((store.sorted_nodes_with_label(label)[0], label) for label in undeclared)
            raise InstanceError(f"node {node_id} has undeclared label {label!r}")
        for label, value, nodes in store.print_buckets():
            if not scheme.is_printable_label(label):
                raise InstanceError(f"object node {min(nodes)} carries a print value")
            scheme.domain_of(label).check(value)
            if len(nodes) > 1:
                raise InstanceError(f"duplicate printable node for {(label, value)!r}")
        for edge_label in sorted(store.edge_labels_in_use()):
            self._validate_edge_label(edge_label)

    def _validate_edge_label(self, edge_label: str) -> None:
        sources, offsets, targets = self._store.out_csr(edge_label)
        source_labels = self._store.labels_of(sources)
        target_labels = self._store.labels_of(targets)
        functional = self._scheme.is_functional(edge_label)
        if len(sources) == len(targets):
            # every span holds one target: nothing can mix or repeat
            triples = set(zip(source_labels, target_labels))
        else:
            triples = set()
            for position, source in enumerate(sources):
                lo, hi = offsets[position], offsets[position + 1]
                span = target_labels[lo:hi]
                if span.count(span[0]) != hi - lo:
                    raise InstanceError(
                        f"node {source} has {edge_label!r}-successors with mixed labels "
                        f"{sorted(set(span))!r}"
                    )
                if functional and hi - lo > 1:
                    raise InstanceError(
                        f"functional edge {edge_label!r} leaves node {source} {hi - lo} times"
                    )
                triples.add((source_labels[position], span[0]))
        for source_label, target_label in sorted(triples):
            if not self._scheme.allows_edge(source_label, edge_label, target_label):
                raise InstanceError(
                    f"edge triple ({source_label!r}, {edge_label!r}, {target_label!r}) "
                    "is not permitted by the scheme"
                )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Instance(nodes={self.node_count}, edges={self.edge_count})"
