"""Object base schemes (Section 2).

An object base scheme is a five-tuple ``S = (OL, POL, FEL, MEL, P)``:

* ``OL`` — finite set of object labels (user-defined, rectangular);
* ``POL`` — finite set of printable object labels (system, oval);
* ``FEL`` — finite set of functional edge labels (single arrow);
* ``MEL`` — finite set of multivalued edge labels (double arrow);
* ``P ⊆ OL × (MEL ∪ FEL) × (OL ∪ POL)`` — the permitted properties.

Note that property edges always *leave* an object class (never a
printable class), and the four label sets are pairwise disjoint.

:class:`Scheme` enforces these conditions, supports the sub-scheme test
and scheme union the formal operation definitions rely on ("the minimal
scheme of which S is a subscheme and over which J' is a pattern"), and
carries two extensions used later in the paper:

* per-printable-label constant domains (the π function of Section 2);
* an ``isa`` marking on functional edge labels for the Section 4.2
  inheritance macro, with the paper's acyclicity requirement.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Dict, FrozenSet, Iterable, Iterator, Optional, Set, Tuple

from repro.core.errors import SchemeError
from repro.core.labels import Domain, domain_for, is_reserved

#: A property triple (source object label, edge label, target label).
PropertyTriple = Tuple[str, str, str]

FUNCTIONAL = "functional"
MULTIVALUED = "multivalued"


class Scheme:
    """An object base scheme with validation and composition helpers."""

    def __init__(
        self,
        object_labels: Iterable[str] = (),
        printable_labels: Iterable[str] = (),
        functional_edge_labels: Iterable[str] = (),
        multivalued_edge_labels: Iterable[str] = (),
        properties: Iterable[PropertyTriple] = (),
        domains: Optional[Dict[str, Domain]] = None,
        allow_reserved: bool = False,
    ) -> None:
        self._object_labels: Set[str] = set()
        self._printable_labels: Set[str] = set()
        self._functional: Set[str] = set()
        self._multivalued: Set[str] = set()
        self._properties: Set[PropertyTriple] = set()
        self._domains: Dict[str, Domain] = {}
        self._isa_labels: Set[str] = set()
        self._allow_reserved = allow_reserved
        # change listeners (repro.txn.journal scheme recorders); never
        # copied with the scheme — each object records independently
        self._listeners: list = []
        # far_labels memo; emptied whenever P changes
        self._far: Dict[Tuple[str, str, Optional[str]], FrozenSet[str]] = {}

        for label in object_labels:
            self.add_object_label(label)
        for label in printable_labels:
            self.add_printable_label(label, (domains or {}).get(label))
        for label in functional_edge_labels:
            self.add_functional_edge_label(label)
        for label in multivalued_edge_labels:
            self.add_multivalued_edge_label(label)
        for source, edge, target in properties:
            self.add_property(source, edge, target)

    # ------------------------------------------------------------------
    # change notification (undo-journal support)
    # ------------------------------------------------------------------
    def _changed(self) -> None:
        """Tell listeners the scheme is *about* to mutate.

        Fired before any content change so an attached undo-journal
        recorder (:mod:`repro.txn.journal`) can snapshot the
        pre-mutation state lazily.  A notification with no subsequent
        mutation (e.g. a declaration that then fails validation) is
        harmless — it only makes the recorder's snapshot redundant.
        """
        if self._listeners:
            for listener in self._listeners:
                listener.scheme_changed(self)

    # ------------------------------------------------------------------
    # label declarations
    # ------------------------------------------------------------------
    def add_object_label(self, label: str) -> "Scheme":
        """Declare an object (rectangular) class label."""
        self._check_fresh(label, allow=self._object_labels)
        self._changed()
        self._object_labels.add(label)
        return self

    def add_printable_label(self, label: str, domain: Optional[Domain] = None) -> "Scheme":
        """Declare a printable (oval) class label with its domain."""
        self._check_fresh(label, allow=self._printable_labels)
        self._changed()
        self._printable_labels.add(label)
        self._domains[label] = domain_for(label, domain)
        return self

    def add_functional_edge_label(self, label: str) -> "Scheme":
        """Declare a functional (single-arrow) edge label."""
        self._check_fresh(label, allow=self._functional)
        self._changed()
        self._functional.add(label)
        return self

    def add_multivalued_edge_label(self, label: str) -> "Scheme":
        """Declare a multivalued (double-arrow) edge label."""
        self._check_fresh(label, allow=self._multivalued)
        self._changed()
        self._multivalued.add(label)
        return self

    def add_property(self, source: str, edge: str, target: str) -> "Scheme":
        """Add a triple to P, verifying all labels were declared."""
        if source not in self._object_labels:
            raise SchemeError(f"property source {source!r} is not a declared object label")
        if edge not in self._functional and edge not in self._multivalued:
            raise SchemeError(f"property edge {edge!r} is not a declared edge label")
        if target not in self._object_labels and target not in self._printable_labels:
            raise SchemeError(f"property target {target!r} is not a declared node label")
        self._changed()
        self._properties.add((source, edge, target))
        self._far = {}
        return self

    def declare(self, source: str, edge: str, target: str, functional: bool = True) -> "Scheme":
        """Convenience: declare missing labels and add the property.

        ``source`` becomes an object label, ``target`` an object label
        unless already known as printable; ``edge`` is functional or
        multivalued per the flag.  Printable targets must be declared
        beforehand with :meth:`add_printable_label` (the paper treats
        printable classes as system-given).
        """
        if source not in self._object_labels:
            self.add_object_label(source)
        if target not in self._object_labels and target not in self._printable_labels:
            self.add_object_label(target)
        wanted = self._functional if functional else self._multivalued
        if edge not in wanted:
            if functional:
                self.add_functional_edge_label(edge)
            else:
                self.add_multivalued_edge_label(edge)
        return self.add_property(source, edge, target)

    @contextmanager
    def allowing_reserved(self):
        """Temporarily permit '@'-prefixed labels (engine internal).

        The method-call machinery of Section 3.6 introduces per-call
        classes and a receiver edge; those live in the reserved
        namespace so they can never collide with user labels, and this
        context manager is the only door through which they enter a
        scheme.
        """
        previous = self._allow_reserved
        self._allow_reserved = True
        try:
            yield self
        finally:
            self._allow_reserved = previous

    def mark_isa(self, edge_label: str) -> "Scheme":
        """Mark a functional edge label as a subclass (isa) edge.

        Section 4.2: subclass edges must be functional and must not
        form a cycle among object classes; the cycle check runs on
        every marking.
        """
        if edge_label not in self._functional:
            raise SchemeError(f"isa label {edge_label!r} must be a functional edge label")
        self._changed()
        self._isa_labels.add(edge_label)
        cycle = self._find_isa_cycle()
        if cycle is not None:
            self._isa_labels.discard(edge_label)
            raise SchemeError(f"isa edges form a cycle through classes {cycle!r}")
        return self

    # ------------------------------------------------------------------
    # accessors
    # ------------------------------------------------------------------
    @property
    def object_labels(self) -> FrozenSet[str]:
        """OL — the declared object labels."""
        return frozenset(self._object_labels)

    @property
    def printable_labels(self) -> FrozenSet[str]:
        """POL — the declared printable labels."""
        return frozenset(self._printable_labels)

    @property
    def functional_edge_labels(self) -> FrozenSet[str]:
        """FEL — the declared functional edge labels."""
        return frozenset(self._functional)

    @property
    def multivalued_edge_labels(self) -> FrozenSet[str]:
        """MEL — the declared multivalued edge labels."""
        return frozenset(self._multivalued)

    @property
    def properties(self) -> FrozenSet[PropertyTriple]:
        """P — the permitted property triples."""
        return frozenset(self._properties)

    @property
    def isa_labels(self) -> FrozenSet[str]:
        """The functional edge labels marked as subclass edges."""
        return frozenset(self._isa_labels)

    def has_node_label(self, label: str) -> bool:
        """Whether ``label`` is in OL ∪ POL."""
        return label in self._object_labels or label in self._printable_labels

    def is_object_label(self, label: str) -> bool:
        """Whether ``label`` is in OL."""
        return label in self._object_labels

    def is_printable_label(self, label: str) -> bool:
        """Whether ``label`` is in POL."""
        return label in self._printable_labels

    def edge_kind(self, edge_label: str) -> str:
        """``"functional"`` or ``"multivalued"`` for a declared label."""
        if edge_label in self._functional:
            return FUNCTIONAL
        if edge_label in self._multivalued:
            return MULTIVALUED
        raise SchemeError(f"{edge_label!r} is not a declared edge label")

    def is_functional(self, edge_label: str) -> bool:
        """Whether ``edge_label`` is functional."""
        return edge_label in self._functional

    def allows_edge(self, source_label: str, edge_label: str, target_label: str) -> bool:
        """Whether the triple is in P."""
        return (source_label, edge_label, target_label) in self._properties

    def targets_of(self, source_label: str, edge_label: str) -> FrozenSet[str]:
        """Target labels permitted for (source_label, edge_label)."""
        return self.far_labels(edge_label, "out", source_label)

    def far_labels(self, edge_label: str, direction: str, near_label: Optional[str] = None) -> FrozenSet[str]:
        """The node labels P admits at the far end of an ``edge_label`` edge.

        ``direction == "out"`` reads the edge from its source, so the
        answer is the labels its target may carry; ``"in"`` reads it
        from its target, so the answer is the labels its source may
        carry.  ``near_label`` fixes the label of the near end
        (``None``: any).  Memoized until P changes: the plan executor
        asks on every execution which candidate label checks the scheme
        makes redundant.
        """
        key = (edge_label, direction, near_label)
        found = self._far.get(key)
        if found is None:
            near, far = (0, 2) if direction == "out" else (2, 0)
            found = self._far[key] = frozenset(
                triple[far]
                for triple in self._properties
                if triple[1] == edge_label and (near_label is None or triple[near] == near_label)
            )
        return found

    def edges_from(self, source_label: str) -> Iterator[PropertyTriple]:
        """Iterate property triples whose source is ``source_label``."""
        for triple in sorted(self._properties):
            if triple[0] == source_label:
                yield triple

    def domain_of(self, printable_label: str) -> Domain:
        """The constant domain π(printable_label)."""
        if printable_label not in self._printable_labels:
            raise SchemeError(f"{printable_label!r} is not a declared printable label")
        return self._domains[printable_label]

    # ------------------------------------------------------------------
    # composition (used by the operation semantics)
    # ------------------------------------------------------------------
    def is_subscheme_of(self, other: "Scheme") -> bool:
        """Sub-scheme with respect to set inclusion (paper footnote 2)."""
        return (
            self._object_labels <= other._object_labels
            and self._printable_labels <= other._printable_labels
            and self._functional <= other._functional
            and self._multivalued <= other._multivalued
            and self._properties <= other._properties
        )

    def union(self, other: "Scheme") -> "Scheme":
        """The smallest scheme of which both operands are subschemes."""
        merged = Scheme(allow_reserved=self._allow_reserved or other._allow_reserved)
        for label in sorted(self._object_labels | other._object_labels):
            merged._object_labels.add(label)
        for label in sorted(self._printable_labels | other._printable_labels):
            merged._printable_labels.add(label)
            merged._domains[label] = self._domains.get(label) or other._domains[label]
        merged._functional = set(self._functional | other._functional)
        merged._multivalued = set(self._multivalued | other._multivalued)
        merged._properties = set(self._properties | other._properties)
        merged._isa_labels = set(self._isa_labels | other._isa_labels)
        merged.validate()
        return merged

    def copy(self) -> "Scheme":
        """An independent copy of this scheme."""
        clone = Scheme(allow_reserved=self._allow_reserved)
        clone._object_labels = set(self._object_labels)
        clone._printable_labels = set(self._printable_labels)
        clone._functional = set(self._functional)
        clone._multivalued = set(self._multivalued)
        clone._properties = set(self._properties)
        clone._domains = dict(self._domains)
        clone._isa_labels = set(self._isa_labels)
        return clone

    def restore_from(self, other: "Scheme") -> "Scheme":
        """Overwrite this scheme's contents with ``other``'s, in place.

        Identity-preserving restore for the transaction layer
        (:mod:`repro.txn`): patterns, instances and sessions holding a
        reference to this scheme object see the rollback.  ``other`` is
        left untouched (fresh containers are installed here).  Change
        listeners stay attached (and are notified first, like any other
        mutation) — a restore performed by an inner transaction is a
        scheme change from an outer journal's point of view.
        """
        self._changed()
        self._object_labels = set(other._object_labels)
        self._printable_labels = set(other._printable_labels)
        self._functional = set(other._functional)
        self._multivalued = set(other._multivalued)
        self._properties = set(other._properties)
        self._domains = dict(other._domains)
        self._isa_labels = set(other._isa_labels)
        self._allow_reserved = other._allow_reserved
        self._far = {}
        return self

    def validate(self) -> None:
        """Re-check all scheme invariants; raise :class:`SchemeError`."""
        families = [self._object_labels, self._printable_labels, self._functional, self._multivalued]
        names = ["OL", "POL", "FEL", "MEL"]
        for i, left in enumerate(families):
            for j in range(i + 1, len(families)):
                overlap = left & families[j]
                if overlap:
                    raise SchemeError(
                        f"label sets {names[i]} and {names[j]} overlap on {sorted(overlap)!r}"
                    )
        for source, edge, target in self._properties:
            if source not in self._object_labels:
                raise SchemeError(f"property source {source!r} not in OL")
            if edge not in self._functional and edge not in self._multivalued:
                raise SchemeError(f"property edge {edge!r} not in FEL ∪ MEL")
            if target not in self._object_labels and target not in self._printable_labels:
                raise SchemeError(f"property target {target!r} not in OL ∪ POL")
        cycle = self._find_isa_cycle()
        if cycle is not None:
            raise SchemeError(f"isa edges form a cycle through classes {cycle!r}")

    # ------------------------------------------------------------------
    # dunder / misc
    # ------------------------------------------------------------------
    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Scheme):
            return NotImplemented
        return (
            self._object_labels == other._object_labels
            and self._printable_labels == other._printable_labels
            and self._functional == other._functional
            and self._multivalued == other._multivalued
            and self._properties == other._properties
        )

    def __hash__(self) -> int:  # schemes are mutable; identity hash
        return id(self)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Scheme(|OL|={len(self._object_labels)}, |POL|={len(self._printable_labels)}, "
            f"|FEL|={len(self._functional)}, |MEL|={len(self._multivalued)}, "
            f"|P|={len(self._properties)})"
        )

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------
    def _check_fresh(self, label: str, allow: Set[str]) -> None:
        if not isinstance(label, str) or not label:
            raise SchemeError(f"labels must be non-empty strings, got {label!r}")
        if is_reserved(label) and not self._allow_reserved:
            raise SchemeError(f"label {label!r} uses the reserved '@' namespace")
        if label in allow:
            return
        for family, name in (
            (self._object_labels, "OL"),
            (self._printable_labels, "POL"),
            (self._functional, "FEL"),
            (self._multivalued, "MEL"),
        ):
            if label in family:
                raise SchemeError(f"label {label!r} is already declared in {name}")

    def _find_isa_cycle(self) -> Optional[Tuple[str, ...]]:
        """Return a class-label cycle through isa properties, if any."""
        successors: Dict[str, Set[str]] = {}
        for source, edge, target in self._properties:
            if edge in self._isa_labels and target in self._object_labels:
                successors.setdefault(source, set()).add(target)
        visiting: Set[str] = set()
        done: Set[str] = set()
        stack: list = []

        def visit(label: str) -> Optional[Tuple[str, ...]]:
            if label in done:
                return None
            if label in visiting:
                idx = stack.index(label)
                return tuple(stack[idx:])
            visiting.add(label)
            stack.append(label)
            for nxt in sorted(successors.get(label, ())):
                found = visit(nxt)
                if found is not None:
                    return found
            stack.pop()
            visiting.discard(label)
            done.add(label)
            return None

        for label in sorted(successors):
            found = visit(label)
            if found is not None:
                return found
        return None
