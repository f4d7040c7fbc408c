"""Exception hierarchy for the GOOD reproduction.

Every error raised by the library derives from :class:`GoodError`, so
callers can catch the whole family with one clause.  The split mirrors
the paper's structure: scheme-level violations, instance-constraint
violations, ill-formed patterns, operation failures (including the
Section 3.2 "result of an edge addition is not defined" case) and
method-mechanism failures.
"""

from __future__ import annotations


class GoodError(Exception):
    """Root of the library's exception hierarchy."""


class SchemeError(GoodError):
    """Violation of the object base scheme definition (Section 2).

    Examples: overlapping label namespaces, a property triple whose
    source is a printable class, or referencing an undeclared label.
    """


class InstanceError(GoodError):
    """Violation of an object base instance constraint (Section 2).

    Examples: an edge not allowed by the scheme, two targets for a
    functional edge, α-successors with different labels, or two
    distinct printable nodes sharing label and print value.
    """


class PatternError(GoodError):
    """An ill-formed pattern (patterns are syntactically instances)."""


class OperationError(GoodError):
    """A GOOD operation could not be applied."""


class EdgeConflictError(OperationError):
    """The Section 3.2 undefined case of edge addition.

    Raised when applying an edge addition would create two different
    edges with the same label leaving the same node that either are
    functional or arrive at nodes with different labels.  The paper
    notes that statically checking this is undecidable and prescribes
    limited run-time checks — this exception is that check firing.
    """


class MethodError(GoodError):
    """Ill-formed method specification/body/call, or recursion overflow."""


class DomainError(GoodError):
    """A print value outside its printable class's constant domain."""


class BackendError(GoodError):
    """Failure inside a storage backend (relational/Tarski engines)."""


class SerializationError(GoodError):
    """Malformed serialised data.

    Always names the offending key (and, for node/edge entries or
    column cells, the list position) so a server can reject a bad
    payload with a precise, structured error instead of a bare
    ``KeyError``/``TypeError``.  Raised by :mod:`repro.io.serialize`
    and by the bulk constructor
    :meth:`repro.graph.store.GraphStore.from_columns`.
    """


class TransactionError(GoodError):
    """Misuse of the transaction layer (:mod:`repro.txn`).

    Examples: committing a transaction twice, rolling back to a
    savepoint that was already released, or opening a transaction on a
    target that exposes no snapshot hooks.
    """


class ResourceLimitError(GoodError):
    """A resource guard budget was exceeded (:mod:`repro.txn.guards`).

    Raised when a guarded execution region performs more pattern
    matchings or deeper method recursion than the configured
    :class:`~repro.txn.guards.ResourceLimits` allow.  Distinct from
    :class:`MethodError`'s hard recursion ceiling: this is a caller-set
    budget, not a safety backstop.
    """
