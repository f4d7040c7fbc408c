"""Labeled directed multigraph substrate underlying GOOD instances.

This package is self-contained (it knows nothing about schemes or the
GOOD operations).  It provides:

* :class:`~repro.graph.store.GraphStore` — the mutable node/edge store
  with by-label, by-print-value and adjacency indexes, over the
  columnar primitives of :mod:`repro.graph.columns` (CSR adjacency
  arrays per edge label, memoized neighbour sets);
* :func:`~repro.graph.diff.graph_diff` — structural difference between
  two stores (used by operation reports and tests);
* :func:`~repro.graph.iso.find_isomorphism` — isomorphism up to node
  identity, used to verify the paper's claim that operations are
  "deterministic up to the particular choice of new objects".
"""

from repro.graph.diff import GraphDiff, graph_diff
from repro.graph.iso import find_isomorphism, isomorphic
from repro.graph.store import NO_PRINT, Delta, Edge, GraphStore, GraphStoreError, NodeRecord

__all__ = [
    "Delta",
    "Edge",
    "GraphDiff",
    "GraphStore",
    "GraphStoreError",
    "NO_PRINT",
    "NodeRecord",
    "find_isomorphism",
    "graph_diff",
    "isomorphic",
]
