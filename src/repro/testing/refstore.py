"""The retained dict-of-records reference store.

:class:`ReferenceGraphStore` is the pre-columnar ``GraphStore``
implementation, kept verbatim as an executable specification: a Python
dict of per-node :class:`~repro.graph.store.NodeRecord` objects plus
set-based adjacency and label indexes, with the sorted-adjacency CSR
arrays bolted on as a lazily rebuilt secondary index.

It exists for two reasons:

* the hypothesis equivalence suite
  (``tests/property/test_columnar_equivalence.py``) drives random
  interleaved mutation/fork sequences through both stores and asserts
  every observable agrees — the columnar rewrite stays honest against
  the simple implementation;
* the columnar benchmark (``benchmarks/test_bench_columnar.py``)
  measures resident bytes and cold pattern-match latency against this
  store to assert the headline floors.

Apart from the class name (and journal entries carrying label strings
rather than interned label ids) the semantics, caching and COW
behaviour are identical to the historical store; see
:mod:`repro.graph.store` for the API documentation.
"""

from __future__ import annotations

from array import array
from collections import OrderedDict
from typing import Any, Dict, FrozenSet, Iterator, List, Optional, Set, Tuple

from repro.graph.adjacency import AdjacencyIndex
from repro.graph.store import NO_PRINT, Delta, Edge, GraphStoreError, NodeRecord

#: Sorted-adjacency / sorted-label entries kept per store.  Entries are
#: immutable and keyed by epoch, so eviction only ever costs a rebuild.
MAX_CACHED_ADJACENCY = 64


class ReferenceGraphStore:
    """The dict-backed labeled multigraph store (executable oracle)."""

    __slots__ = (
        "_nodes",
        "_out",
        "_in",
        "_by_label",
        "_by_print",
        "_by_edge_label",
        "_out_stats",
        "_in_stats",
        "_next_id",
        "_edge_count",
        "_generation",
        "_stats_epoch",
        "_trackers",
        "_journals",
        "_label_views",
        "_edge_label_views",
        "_out_views",
        "_in_views",
        "_adjacency_cache",
        "_plan_cache",
        "_frozen",
        "_shared_data",
        "_shared_views",
        "_cow_inner",
        "_owned_out",
        "_owned_in",
        "_owned_label",
        "_owned_print",
        "_owned_edge_label",
    )

    def __init__(self) -> None:
        self._nodes: Dict[int, NodeRecord] = {}
        # node -> edge label -> set of neighbour node ids
        self._out: Dict[int, Dict[str, Set[int]]] = {}
        self._in: Dict[int, Dict[str, Set[int]]] = {}
        self._by_label: Dict[str, Set[int]] = {}
        self._by_print: Dict[Tuple[str, Any], Set[int]] = {}
        # edge label -> set of (source, target) pairs
        self._by_edge_label: Dict[str, Set[Tuple[int, int]]] = {}
        # (source node label, edge label) -> number of such edges
        self._out_stats: Dict[Tuple[str, str], int] = {}
        # (target node label, edge label) -> number of such edges
        self._in_stats: Dict[Tuple[str, str], int] = {}
        self._next_id = 0
        self._edge_count = 0
        self._generation = 0
        self._stats_epoch = 0
        self._trackers: List[Delta] = []
        self._journals: List[Any] = []
        self._label_views: Dict[str, FrozenSet[int]] = {}
        self._edge_label_views: Dict[str, FrozenSet[Tuple[int, int]]] = {}
        self._out_views: Dict[int, Dict[str, FrozenSet[int]]] = {}
        self._in_views: Dict[int, Dict[str, FrozenSet[int]]] = {}
        self._adjacency_cache: "OrderedDict[Tuple[str, str, int], Any]" = OrderedDict()
        self._plan_cache: Optional[Dict[Any, Any]] = None
        self._frozen = False
        self._shared_data = False
        self._shared_views = False
        self._cow_inner = False
        self._owned_out: Set[int] = set()
        self._owned_in: Set[int] = set()
        self._owned_label: Set[str] = set()
        self._owned_print: Set[Tuple[str, Any]] = set()
        self._owned_edge_label: Set[str] = set()

    # ------------------------------------------------------------------
    # change tracking
    # ------------------------------------------------------------------
    @property
    def generation(self) -> int:
        """Monotone mutation counter (bumps on every successful change)."""
        return self._generation

    @property
    def stats_epoch(self) -> int:
        """Monotone *structural* change counter."""
        return self._stats_epoch

    def start_tracking(self) -> Delta:
        """Attach and return a fresh :class:`Delta` recorder."""
        delta = Delta(start_generation=self._generation)
        self._trackers.append(delta)
        return delta

    def stop_tracking(self, delta: Delta) -> Delta:
        """Detach a recorder previously returned by :meth:`start_tracking`."""
        try:
            self._trackers.remove(delta)
        except ValueError:
            raise GraphStoreError("delta is not attached to this store") from None
        return delta

    def attach_journal(self, journal: Any) -> None:
        """Attach an undo journal (an object with an ``entries`` list)."""
        self._journals.append(journal)

    def detach_journal(self, journal: Any) -> None:
        """Detach a journal previously passed to :meth:`attach_journal`."""
        try:
            self._journals.remove(journal)
        except ValueError:
            raise GraphStoreError("journal is not attached to this store") from None

    # ------------------------------------------------------------------
    # copy-on-write forks (MVCC snapshot support)
    # ------------------------------------------------------------------
    @property
    def frozen(self) -> bool:
        """Whether this store is an immutable snapshot (mutators raise)."""
        return self._frozen

    def fork(self, *, frozen: bool = True) -> "ReferenceGraphStore":
        """Return an O(1) copy-on-write clone of this store."""
        clone = ReferenceGraphStore.__new__(ReferenceGraphStore)
        clone._nodes = self._nodes
        clone._out = self._out
        clone._in = self._in
        clone._by_label = self._by_label
        clone._by_print = self._by_print
        clone._by_edge_label = self._by_edge_label
        clone._out_stats = self._out_stats
        clone._in_stats = self._in_stats
        clone._next_id = self._next_id
        clone._edge_count = self._edge_count
        clone._generation = self._generation
        clone._stats_epoch = self._stats_epoch
        clone._trackers = []
        clone._journals = []
        clone._label_views = self._label_views
        clone._edge_label_views = self._edge_label_views
        clone._out_views = self._out_views
        clone._in_views = self._in_views
        if frozen:
            # entries are keyed by stats_epoch, which a mutable clone
            # reaches again with different contents: share only frozen
            clone._adjacency_cache = self._adjacency_cache
        else:
            clone._adjacency_cache = OrderedDict()
        if self._plan_cache is None and not self._frozen:
            self._plan_cache = OrderedDict()
        clone._plan_cache = self._plan_cache
        clone._frozen = frozen
        clone._shared_data = True
        clone._shared_views = True
        clone._cow_inner = True
        clone._owned_out = set()
        clone._owned_in = set()
        clone._owned_label = set()
        clone._owned_print = set()
        clone._owned_edge_label = set()
        if not self._frozen:
            self._shared_data = True
            self._shared_views = True
            self._cow_inner = True
            self._owned_out = set()
            self._owned_in = set()
            self._owned_label = set()
            self._owned_print = set()
            self._owned_edge_label = set()
        return clone

    def _before_write(self) -> None:
        """Mutator prologue: reject frozen stores, privatize shared dicts."""
        if self._frozen:
            raise GraphStoreError(
                "store is frozen (a published MVCC snapshot); "
                "fork(frozen=False) yields a mutable clone"
            )
        if self._shared_views:
            self._label_views = dict(self._label_views)
            self._edge_label_views = dict(self._edge_label_views)
            self._out_views = {n: dict(v) for n, v in dict(self._out_views).items()}
            self._in_views = {n: dict(v) for n, v in dict(self._in_views).items()}
            self._shared_views = False
        if self._shared_data:
            self._nodes = dict(self._nodes)
            self._out = dict(self._out)
            self._in = dict(self._in)
            self._by_label = dict(self._by_label)
            self._by_print = dict(self._by_print)
            self._by_edge_label = dict(self._by_edge_label)
            self._out_stats = dict(self._out_stats)
            self._in_stats = dict(self._in_stats)
            self._shared_data = False

    def _own_adj_out(self, node_id: int) -> None:
        if not self._cow_inner or node_id in self._owned_out:
            return
        adj = self._out.get(node_id)
        if adj is not None:
            self._out[node_id] = {lbl: set(ts) for lbl, ts in adj.items()}
        self._owned_out.add(node_id)

    def _own_adj_in(self, node_id: int) -> None:
        if not self._cow_inner or node_id in self._owned_in:
            return
        adj = self._in.get(node_id)
        if adj is not None:
            self._in[node_id] = {lbl: set(ss) for lbl, ss in adj.items()}
        self._owned_in.add(node_id)

    def _own_label(self, label: str) -> None:
        if not self._cow_inner or label in self._owned_label:
            return
        nodes = self._by_label.get(label)
        if nodes is not None:
            self._by_label[label] = set(nodes)
        self._owned_label.add(label)

    def _own_print(self, key: Tuple[str, Any]) -> None:
        if not self._cow_inner or key in self._owned_print:
            return
        nodes = self._by_print.get(key)
        if nodes is not None:
            self._by_print[key] = set(nodes)
        self._owned_print.add(key)

    def _own_edge_label(self, label: str) -> None:
        if not self._cow_inner or label in self._owned_edge_label:
            return
        pairs = self._by_edge_label.get(label)
        if pairs is not None:
            self._by_edge_label[label] = set(pairs)
        self._owned_edge_label.add(label)

    # ------------------------------------------------------------------
    # node operations
    # ------------------------------------------------------------------
    def add_node(self, label: str, print_value: Any = NO_PRINT, node_id: Optional[int] = None) -> int:
        """Create a node with ``label`` and optional print value."""
        self._before_write()
        if node_id is None:
            node_id = self._next_id
            self._next_id += 1
        else:
            if node_id in self._nodes:
                raise GraphStoreError(f"node id {node_id} already exists")
            self._next_id = max(self._next_id, node_id + 1)
        self._nodes[node_id] = NodeRecord(label, print_value)
        self._out[node_id] = {}
        self._in[node_id] = {}
        if self._cow_inner:
            self._owned_out.add(node_id)
            self._owned_in.add(node_id)
        self._own_label(label)
        self._by_label.setdefault(label, set()).add(node_id)
        if print_value is not NO_PRINT:
            self._own_print((label, print_value))
            self._by_print.setdefault((label, print_value), set()).add(node_id)
        self._label_views.pop(label, None)
        self._out_views.pop(node_id, None)
        self._in_views.pop(node_id, None)
        self._generation += 1
        self._stats_epoch += 1
        for tracker in self._trackers:
            tracker.record_node(node_id)
        for journal in self._journals:
            journal.entries.append(("add_node", node_id, label, print_value))
        return node_id

    def remove_node(self, node_id: int) -> None:
        """Delete a node together with all its incident edges."""
        record = self._require(node_id)
        self._before_write()
        for edge in list(self.edges_of(node_id)):
            self.remove_edge(edge.source, edge.label, edge.target)
        self._own_label(record.label)
        self._by_label[record.label].discard(node_id)
        if not self._by_label[record.label]:
            del self._by_label[record.label]
        if record.has_print:
            key = (record.label, record.print_value)
            self._own_print(key)
            self._by_print[key].discard(node_id)
            if not self._by_print[key]:
                del self._by_print[key]
        del self._nodes[node_id]
        del self._out[node_id]
        del self._in[node_id]
        self._label_views.pop(record.label, None)
        self._out_views.pop(node_id, None)
        self._in_views.pop(node_id, None)
        self._generation += 1
        self._stats_epoch += 1
        for tracker in self._trackers:
            tracker.retract_node(node_id)
        for journal in self._journals:
            journal.entries.append(("remove_node", node_id, record.label, record.print_value))

    def set_print(self, node_id: int, print_value: Any) -> None:
        """Attach or replace the print value of ``node_id``."""
        record = self._require(node_id)
        self._before_write()
        if record.has_print:
            key = (record.label, record.print_value)
            self._own_print(key)
            self._by_print[key].discard(node_id)
            if not self._by_print[key]:
                del self._by_print[key]
        self._nodes[node_id] = NodeRecord(record.label, print_value)
        if print_value is not NO_PRINT:
            self._own_print((record.label, print_value))
            self._by_print.setdefault((record.label, print_value), set()).add(node_id)
        self._generation += 1
        for journal in self._journals:
            journal.entries.append(("set_print", node_id, record.print_value, print_value))

    def has_node(self, node_id: int) -> bool:
        """Whether ``node_id`` exists in the store."""
        return node_id in self._nodes

    def node(self, node_id: int) -> NodeRecord:
        """Return the :class:`NodeRecord` for ``node_id``."""
        return self._require(node_id)

    def label_of(self, node_id: int) -> str:
        """Return the label of ``node_id``."""
        return self._require(node_id).label

    def print_of(self, node_id: int) -> Any:
        """Return the print value of ``node_id`` (or :data:`NO_PRINT`)."""
        return self._require(node_id).print_value

    def nodes(self) -> Iterator[int]:
        """Iterate over node ids in ascending (creation) order."""
        return iter(sorted(self._nodes))

    def nodes_with_label(self, label: str) -> FrozenSet[int]:
        """All node ids carrying ``label`` (a cached frozenset view)."""
        view = self._label_views.get(label)
        if view is None:
            view = self._label_views[label] = frozenset(self._by_label.get(label, ()))
        return view

    def nodes_with_print(self, label: str, print_value: Any) -> FrozenSet[int]:
        """All node ids with the given label *and* print value."""
        return frozenset(self._by_print.get((label, print_value), frozenset()))

    def labels_in_use(self) -> FrozenSet[str]:
        """The set of node labels that occur in the store."""
        return frozenset(self._by_label)

    @property
    def node_count(self) -> int:
        """Number of nodes in the store."""
        return len(self._nodes)

    @property
    def next_id(self) -> int:
        """The id the next ``add_node`` call would hand out."""
        return self._next_id

    # ------------------------------------------------------------------
    # edge operations
    # ------------------------------------------------------------------
    def add_edge(self, source: int, label: str, target: int) -> bool:
        """Insert the edge; return ``False`` if it was already present."""
        source_record = self._require(source)
        target_record = self._require(target)
        if target in self._out[source].get(label, ()):
            return False
        self._before_write()
        self._own_adj_out(source)
        self._own_adj_in(target)
        self._own_edge_label(label)
        self._out[source].setdefault(label, set()).add(target)
        self._in[target].setdefault(label, set()).add(source)
        self._by_edge_label.setdefault(label, set()).add((source, target))
        out_key = (source_record.label, label)
        self._out_stats[out_key] = self._out_stats.get(out_key, 0) + 1
        in_key = (target_record.label, label)
        self._in_stats[in_key] = self._in_stats.get(in_key, 0) + 1
        self._edge_label_views.pop(label, None)
        self._out_views.pop(source, None)
        self._in_views.pop(target, None)
        self._edge_count += 1
        self._generation += 1
        self._stats_epoch += 1
        for tracker in self._trackers:
            tracker.record_edge((source, label, target))
        for journal in self._journals:
            journal.entries.append(("add_edge", source, label, target))
        return True

    def remove_edge(self, source: int, label: str, target: int) -> bool:
        """Delete the edge; return ``False`` if it was not present."""
        if target not in self._out.get(source, {}).get(label, ()):
            return False
        self._before_write()
        self._own_adj_out(source)
        self._own_adj_in(target)
        self._own_edge_label(label)
        targets = self._out[source][label]
        targets.discard(target)
        if not targets:
            del self._out[source][label]
        sources = self._in[target][label]
        sources.discard(source)
        if not sources:
            del self._in[target][label]
        pairs = self._by_edge_label[label]
        pairs.discard((source, target))
        if not pairs:
            del self._by_edge_label[label]
        out_key = (self._nodes[source].label, label)
        if self._out_stats[out_key] == 1:
            del self._out_stats[out_key]
        else:
            self._out_stats[out_key] -= 1
        in_key = (self._nodes[target].label, label)
        if self._in_stats[in_key] == 1:
            del self._in_stats[in_key]
        else:
            self._in_stats[in_key] -= 1
        self._edge_label_views.pop(label, None)
        self._out_views.pop(source, None)
        self._in_views.pop(target, None)
        self._edge_count -= 1
        self._generation += 1
        self._stats_epoch += 1
        for tracker in self._trackers:
            tracker.retract_edge((source, label, target))
        for journal in self._journals:
            journal.entries.append(("remove_edge", source, label, target))
        return True

    def has_edge(self, source: int, label: str, target: int) -> bool:
        """Whether the edge ``source --label--> target`` exists."""
        return target in self._out.get(source, {}).get(label, ())

    def out_neighbours(self, node_id: int, label: str) -> FrozenSet[int]:
        """Targets of ``label``-edges leaving ``node_id`` (cached view)."""
        views = self._out_views.get(node_id)
        if views is None:
            views = self._out_views[node_id] = {}
        view = views.get(label)
        if view is None:
            view = views[label] = frozenset(self._out.get(node_id, {}).get(label, ()))
        return view

    def in_neighbours(self, node_id: int, label: str) -> FrozenSet[int]:
        """Sources of ``label``-edges arriving at ``node_id`` (cached view)."""
        views = self._in_views.get(node_id)
        if views is None:
            views = self._in_views[node_id] = {}
        view = views.get(label)
        if view is None:
            view = views[label] = frozenset(self._in.get(node_id, {}).get(label, ()))
        return view

    def out_labels(self, node_id: int) -> FrozenSet[str]:
        """Edge labels leaving ``node_id``."""
        self._require(node_id)
        return frozenset(self._out[node_id])

    def in_labels(self, node_id: int) -> FrozenSet[str]:
        """Edge labels arriving at ``node_id``."""
        self._require(node_id)
        return frozenset(self._in[node_id])

    def out_edges(self, node_id: int) -> Iterator[Edge]:
        """Iterate over edges leaving ``node_id`` deterministically."""
        self._require(node_id)
        for label in sorted(self._out[node_id]):
            for target in sorted(self._out[node_id][label]):
                yield Edge(node_id, label, target)

    def in_edges(self, node_id: int) -> Iterator[Edge]:
        """Iterate over edges arriving at ``node_id`` deterministically."""
        self._require(node_id)
        for label in sorted(self._in[node_id]):
            for source in sorted(self._in[node_id][label]):
                yield Edge(source, label, node_id)

    def edges_of(self, node_id: int) -> Iterator[Edge]:
        """All edges incident to ``node_id`` (self-loops reported once)."""
        seen: Set[Edge] = set()
        for edge in self.out_edges(node_id):
            seen.add(edge)
            yield edge
        for edge in self.in_edges(node_id):
            if edge not in seen:
                yield edge

    def edges(self) -> Iterator[Edge]:
        """Iterate over all edges, deterministically ordered."""
        for node_id in sorted(self._out):
            for label in sorted(self._out[node_id]):
                for target in sorted(self._out[node_id][label]):
                    yield Edge(node_id, label, target)

    @property
    def edge_count(self) -> int:
        """Number of edges in the store."""
        return self._edge_count

    # ------------------------------------------------------------------
    # secondary indexes and cardinality statistics (planner support)
    # ------------------------------------------------------------------
    def edges_with_label(self, label: str) -> FrozenSet[Tuple[int, int]]:
        """All ``(source, target)`` pairs of ``label``-edges (cached view)."""
        view = self._edge_label_views.get(label)
        if view is None:
            view = self._edge_label_views[label] = frozenset(self._by_edge_label.get(label, ()))
        return view

    def edge_labels_in_use(self) -> FrozenSet[str]:
        """The set of edge labels that occur in the store."""
        return frozenset(self._by_edge_label)

    # ------------------------------------------------------------------
    # sorted-adjacency arrays (worst-case-optimal join support)
    # ------------------------------------------------------------------
    def sorted_adjacency(self, label: str) -> AdjacencyIndex:
        """The CSR sorted-adjacency index for ``label`` at this epoch."""
        key = ("adj", label, self._stats_epoch)
        cache = self._adjacency_cache
        index = cache.get(key)
        if index is None:
            index = AdjacencyIndex(
                label, self._by_edge_label.get(label, ()), self._stats_epoch
            )
            cache[key] = index
            self._trim_adjacency_cache()
        return index

    def cached_adjacency(self, label: str) -> Optional[AdjacencyIndex]:
        """The current-epoch index for ``label`` if already built."""
        return self._adjacency_cache.get(("adj", label, self._stats_epoch))

    def sorted_nodes_with_label(self, label: str) -> array:
        """All node ids carrying ``label`` as a sorted ``array('q')``."""
        key = ("lbl", label, self._stats_epoch)
        cache = self._adjacency_cache
        nodes = cache.get(key)
        if nodes is None:
            nodes = array("q", sorted(self._by_label.get(label, ())))
            cache[key] = nodes
            self._trim_adjacency_cache()
        return nodes

    def _trim_adjacency_cache(self) -> None:
        cache = self._adjacency_cache
        try:
            while len(cache) > MAX_CACHED_ADJACENCY:
                cache.popitem(last=False)
        except KeyError:  # concurrent eviction raced ours; stays bounded
            pass

    def label_count(self, label: str) -> int:
        """Number of nodes carrying ``label`` (O(1))."""
        nodes = self._by_label.get(label)
        return 0 if nodes is None else len(nodes)

    def edge_label_count(self, label: str) -> int:
        """Number of edges carrying ``label`` (O(1))."""
        pairs = self._by_edge_label.get(label)
        return 0 if pairs is None else len(pairs)

    def out_degree_total(self, node_label: str, edge_label: str) -> int:
        """How many ``edge_label`` edges leave ``node_label`` nodes (O(1))."""
        return self._out_stats.get((node_label, edge_label), 0)

    def in_degree_total(self, node_label: str, edge_label: str) -> int:
        """How many ``edge_label`` edges arrive at ``node_label`` nodes (O(1))."""
        return self._in_stats.get((node_label, edge_label), 0)

    # ------------------------------------------------------------------
    # whole-graph operations
    # ------------------------------------------------------------------
    def copy(self) -> "ReferenceGraphStore":
        """Deep-copy the store; node ids and the id counter carry over."""
        if self._frozen:
            # a copy is an independent database: it must not plan into
            # the epoch-keyed plan cache of the versions it came from
            clone = self.fork(frozen=False)
            clone._plan_cache = None
            return clone
        clone = ReferenceGraphStore()
        clone._nodes = dict(self._nodes)
        clone._out = {n: {lbl: set(ts) for lbl, ts in adj.items()} for n, adj in self._out.items()}
        clone._in = {n: {lbl: set(ss) for lbl, ss in adj.items()} for n, adj in self._in.items()}
        clone._by_label = {lbl: set(ns) for lbl, ns in self._by_label.items()}
        clone._by_print = {key: set(ns) for key, ns in self._by_print.items()}
        clone._by_edge_label = {lbl: set(ps) for lbl, ps in self._by_edge_label.items()}
        clone._out_stats = dict(self._out_stats)
        clone._in_stats = dict(self._in_stats)
        clone._next_id = self._next_id
        clone._edge_count = self._edge_count
        clone._generation = self._generation
        clone._stats_epoch = self._stats_epoch
        clone._label_views = self._label_views
        clone._edge_label_views = self._edge_label_views
        clone._out_views = self._out_views
        clone._in_views = self._in_views
        clone._shared_views = True
        self._shared_views = True
        return clone

    def degree(self, node_id: int) -> int:
        """Total number of incident edge endpoints at ``node_id``."""
        self._require(node_id)
        out_deg = sum(len(ts) for ts in self._out[node_id].values())
        in_deg = sum(len(ss) for ss in self._in[node_id].values())
        return out_deg + in_deg

    def __len__(self) -> int:
        return len(self._nodes)

    def __contains__(self, node_id: object) -> bool:
        return node_id in self._nodes

    def __iter__(self) -> Iterator[int]:
        return self.nodes()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"ReferenceGraphStore(nodes={self.node_count}, edges={self.edge_count})"

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------
    def _require(self, node_id: int) -> NodeRecord:
        try:
            return self._nodes[node_id]
        except KeyError:
            raise GraphStoreError(f"unknown node id {node_id!r}") from None
