"""The GOOD model core: schemes, instances, patterns, operations.

This package implements the paper's primary contribution — Sections 2
(object base schemes and instances), 3 (the transformation language:
pattern matching, the five basic operations, methods) and 4.1/4.2 (the
macros and the inheritance view).
"""

from repro.core.errors import (
    BackendError,
    DomainError,
    EdgeConflictError,
    GoodError,
    InstanceError,
    MethodError,
    OperationError,
    PatternError,
    ResourceLimitError,
    SchemeError,
    TransactionError,
)
from repro.core.instance import Instance
from repro.core.labels import BUILTIN_DOMAINS, Domain, date_ordinal
from repro.core.macros import (
    NegatedPattern,
    NegationCompilation,
    RecursiveEdgeAddition,
    RecursiveNodeAddition,
    compile_negation,
    date_between,
    match_negated,
    value_between,
    value_in,
    value_not_equal,
)
from repro.core.matching import (
    Matching,
    count_matchings,
    find_matchings,
    match_exists,
)
from repro.core.methods import (
    BodyOp,
    ExecutionContext,
    HeadBindings,
    Method,
    MethodCall,
    MethodRegistry,
    MethodSignature,
)
from repro.core.operations import (
    Abstraction,
    EdgeAddition,
    EdgeDeletion,
    NodeAddition,
    NodeDeletion,
    Operation,
    OperationReport,
)
from repro.core.pattern import Pattern, PrintPredicate, empty_pattern
from repro.core.program import Program, ProgramResult, run_operation
from repro.core.scheme import Scheme
from repro.graph.store import NO_PRINT

__all__ = [
    "Abstraction",
    "BUILTIN_DOMAINS",
    "BackendError",
    "BodyOp",
    "compile_negation",
    "count_matchings",
    "date_between",
    "date_ordinal",
    "Domain",
    "DomainError",
    "EdgeAddition",
    "EdgeConflictError",
    "EdgeDeletion",
    "empty_pattern",
    "ExecutionContext",
    "find_matchings",
    "GoodError",
    "HeadBindings",
    "Instance",
    "InstanceError",
    "match_exists",
    "match_negated",
    "Matching",
    "Method",
    "MethodCall",
    "MethodError",
    "MethodRegistry",
    "MethodSignature",
    "NegatedPattern",
    "NegationCompilation",
    "NO_PRINT",
    "NodeAddition",
    "NodeDeletion",
    "Operation",
    "OperationError",
    "OperationReport",
    "Pattern",
    "PatternError",
    "PrintPredicate",
    "Program",
    "ProgramResult",
    "RecursiveEdgeAddition",
    "RecursiveNodeAddition",
    "ResourceLimitError",
    "run_operation",
    "Scheme",
    "SchemeError",
    "TransactionError",
    "value_between",
    "value_in",
    "value_not_equal",
]
