"""The labeled directed multigraph store, columnar edition.

A :class:`GraphStore` holds labeled nodes — each optionally carrying a
*print value* (the paper's ``print`` label for printable objects) — and
labeled directed edges.  Since the columnar rewrite the physical layout
is index-free adjacency over flat arrays rather than dicts of boxed
records:

* node labels live in a process-global string-intern table
  (:data:`repro.graph.columns.LABELS`); label ids are small ints;
* nodes occupy dense *slots*: parallel columns ``slot -> label id``
  and ``slot -> external id`` (``array('q')``) beside a ``slot -> print
  value`` dict holding only the slots whose node carries a print, with
  a free-list recycling slots after removals and an id→slot map keeping
  the external integer node-id API unchanged;
* each edge label is one :class:`~repro.graph.columns.EdgeColumn` —
  CSR adjacency arrays in both directions, maintained incrementally by
  bounded pending overlays and periodic linear merges, never an
  epoch-keyed O(E log E) rebuild;
* per-label node membership is a sorted
  :class:`~repro.graph.columns.IntColumn`, which also backs ``nodes()``
  iteration without re-sorting the whole id set per call.

The hot read accessors (``out_neighbours``, ``in_neighbours``,
``nodes_with_label``, ``edges_with_label``) hand out frozensets
memoized *on the columns*: repeated calls return the identical object
until a mutation touches that column, and forks that share a column
share its memos.  The store keeps no view dicts of its own, so nothing
per node is copied when a published version diverges.  Statistics are
versioned by :attr:`stats_epoch`, which advances on every structural
change (node/edge add/remove) but not on print-value updates.

``fork()`` (a frozen snapshot) and ``copy()`` (a mutable clone) share
every column by reference.  Each store carries a fork epoch and writes
a container in place only when the container carries that epoch,
cloning it first otherwise, so MVCC captures cost O(1) and divergence
costs O(changes).  Undo journals and WAL redo records carry interned
label ids instead of strings.

The store enforces only graph-level integrity (no dangling edges, no
duplicate edges).  GOOD-specific constraints live in
:mod:`repro.core.instance`.  Node identifiers are integers handed out
by a per-store counter; iteration orders are deterministic (ascending
ids, lexicographically sorted labels), which makes every operation in
the reproduction reproducible run-to-run.
"""

from __future__ import annotations

import itertools
import sys
from array import array
from collections import Counter, OrderedDict
from dataclasses import dataclass, field
from typing import (
    Any,
    Callable,
    Dict,
    FrozenSet,
    Iterable,
    Iterator,
    List,
    Mapping,
    Optional,
    Set,
    Tuple,
)

from repro.core.errors import SerializationError
from repro.graph.columns import (
    EMPTY_ARRAY,
    EMPTY_SET,
    LABELS,
    EdgeColumn,
    IdSlotMap,
    IntColumn,
    SpanSets,
    intern_label,
    label_name,
    lookup_label,
)


class GraphStoreError(Exception):
    """Raised on graph-level integrity violations (unknown node, ...)."""


#: Fork epochs for every store in the process.  Process-wide so that no
#: two stores ever hold the same epoch: a container carrying a store's
#: current epoch was created or cloned by that store since its last
#: fork, so no other store can reach it.  Starts at 1 so a group stamp
#: of 0 matches no store.
_FORK_EPOCHS = itertools.count(1)


@dataclass
class Delta:
    """A recorded batch of additions: the unit of semi-naive evaluation.

    A delta holds the nodes and edges added to a store while it was
    attached as a tracker (``GraphStore.start_tracking``), plus the
    store generation at which recording began.  The generation counter
    is monotone across *all* mutations, so two deltas from the same
    store are ordered by ``start_generation``.

    Removals are rare in the fixpoint paths that consume deltas (rules
    only add), but for safety a tracked removal retracts the item from
    the delta so a delta never advertises structure the store lost.
    """

    nodes: Set[int] = field(default_factory=set)
    edges: Set[Tuple[int, str, int]] = field(default_factory=set)
    start_generation: int = 0
    #: Bumped by every tracked mutation and by :meth:`merge`; the sorted
    #: views below memoize against it (plus the set sizes, so a delta
    #: whose sets are filled in directly still invalidates correctly).
    _version: int = field(default=0, repr=False, compare=False)
    _nodes_cache: Optional[Tuple[Tuple[int, int], List[int]]] = field(
        default=None, repr=False, compare=False
    )
    _edges_cache: Optional[Tuple[Tuple[int, int], List[Tuple[int, str, int]]]] = field(
        default=None, repr=False, compare=False
    )

    @property
    def is_empty(self) -> bool:
        """Whether nothing was recorded."""
        return not self.nodes and not self.edges

    def __len__(self) -> int:
        return len(self.nodes) + len(self.edges)

    def record_node(self, node_id: int) -> None:
        """Track a node addition (store mutator hook)."""
        self.nodes.add(node_id)
        self._version += 1

    def retract_node(self, node_id: int) -> None:
        """Untrack a node removed while recording (store mutator hook)."""
        self.nodes.discard(node_id)
        self._version += 1

    def record_edge(self, edge: Tuple[int, str, int]) -> None:
        """Track an edge addition (store mutator hook)."""
        self.edges.add(edge)
        self._version += 1

    def retract_edge(self, edge: Tuple[int, str, int]) -> None:
        """Untrack an edge removed while recording (store mutator hook)."""
        self.edges.discard(edge)
        self._version += 1

    def merge(self, other: "Delta") -> "Delta":
        """Fold ``other`` into this delta; returns ``self``."""
        self.nodes |= other.nodes
        self.edges |= other.edges
        self.start_generation = min(self.start_generation, other.start_generation)
        self._version += 1
        return self

    def sorted_nodes(self) -> List[int]:
        """The recorded nodes in deterministic (ascending) order.

        Memoized per version: fixpoint rounds consult the sorted views
        many times between mutations, so re-sorting on every call was
        pure overhead.  Callers must not mutate the returned list.
        """
        key = (self._version, len(self.nodes))
        if self._nodes_cache is None or self._nodes_cache[0] != key:
            self._nodes_cache = (key, sorted(self.nodes))
        return self._nodes_cache[1]

    def sorted_edges(self) -> List[Tuple[int, str, int]]:
        """The recorded edges in deterministic order (memoized, like
        :meth:`sorted_nodes`; callers must not mutate the result)."""
        key = (self._version, len(self.edges))
        if self._edges_cache is None or self._edges_cache[0] != key:
            self._edges_cache = (key, sorted(self.edges))
        return self._edges_cache[1]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Delta(nodes={len(self.nodes)}, edges={len(self.edges)}, "
            f"from_generation={self.start_generation})"
        )


class _NoPrint:
    """Sentinel for "this node carries no print value".

    ``None`` is not usable as the sentinel because ``None`` is a
    perfectly valid print value for a Bool-like domain.
    """

    _instance: Optional["_NoPrint"] = None

    def __new__(cls) -> "_NoPrint":
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:  # pragma: no cover - trivial
        return "NO_PRINT"

    def __reduce__(self):
        return (_NoPrint, ())


#: Module-level sentinel: a node whose print value is :data:`NO_PRINT`
#: has no print label at all.
NO_PRINT = _NoPrint()


@dataclass(frozen=True)
class NodeRecord:
    """Immutable snapshot of one node: its label and print value."""

    label: str
    print_value: Any = NO_PRINT

    @property
    def has_print(self) -> bool:
        """Whether the node carries a print value."""
        return self.print_value is not NO_PRINT


@dataclass(frozen=True, order=True)
class Edge:
    """A labeled directed edge ``source --label--> target``."""

    source: int
    label: str
    target: int

    def as_tuple(self) -> Tuple[int, str, int]:
        """Return the edge as a plain ``(source, label, target)`` tuple."""
        return (self.source, self.label, self.target)


class GraphStore:
    """A mutable labeled directed multigraph over columnar storage."""

    __slots__ = (
        # node columns (slot-indexed)
        "_slot_label",
        "_slot_print",
        "_slot_id",
        "_id_map",
        "_free",
        "_ids",
        # per-label structures
        "_members",
        "_prints",
        "_ecols",
        "_out_stats",
        "_in_stats",
        # counters
        "_next_id",
        "_edge_count",
        "_generation",
        "_stats_epoch",
        # observers
        "_trackers",
        "_journals",
        # cached derived data
        "_plan_cache",
        # copy-on-write state: this store's fork epoch and the epochs at
        # which it privatized the top-level dicts and the node columns
        "_frozen",
        "_epoch",
        "_dicts_epoch",
        "_nodes_epoch",
        "_prints_epoch",
    )

    def __init__(self) -> None:
        # slot -> interned label id (-1 marks a free slot)
        self._slot_label = array("q")
        # slot -> print value, for the slots whose node carries one
        self._slot_print: Dict[int, Any] = {}
        # slot -> external node id (-1 when free)
        self._slot_id = array("q")
        self._id_map = IdSlotMap()
        self._free: List[int] = []
        # maintained sorted column of live external ids (nodes())
        self._ids = IntColumn()
        # label id -> sorted membership column
        self._members: Dict[int, IntColumn] = {}
        # (label id, print value) -> frozenset of node ids, replaced on
        # write (value uniqueness keeps instance buckets at one node)
        self._prints: Dict[Tuple[int, Any], FrozenSet[int]] = {}
        # edge label id -> bidirectional CSR adjacency column
        self._ecols: Dict[int, EdgeColumn] = {}
        # (node label id, edge label id) -> edge totals for the planner
        self._out_stats: Dict[Tuple[int, int], int] = {}
        self._in_stats: Dict[Tuple[int, int], int] = {}
        self._next_id = 0
        self._edge_count = 0
        self._generation = 0
        self._stats_epoch = 0
        self._trackers: List[Delta] = []
        # attached undo journals (repro.txn.journal); each mutator
        # appends an inverse-describing entry to every journal so a
        # rollback can replay the changes in reverse
        self._journals: List[Any] = []
        # compiled-plan slot managed by repro.plan (per-store, not copied)
        self._plan_cache: Optional[Dict[Any, Any]] = None
        # --- copy-on-write state (see fork) ---
        self._frozen = False
        self._epoch = self._dicts_epoch = self._nodes_epoch = self._prints_epoch = next(_FORK_EPOCHS)

    # ------------------------------------------------------------------
    # change tracking
    # ------------------------------------------------------------------
    @property
    def generation(self) -> int:
        """Monotone mutation counter (bumps on every successful change)."""
        return self._generation

    @property
    def stats_epoch(self) -> int:
        """Monotone *structural* change counter.

        Advances whenever the cardinality statistics may have shifted
        (node or edge added/removed) but not on ``set_print`` — a plan
        compiled against one epoch stays cost-optimal until the epoch
        moves.  Every ``stats_epoch`` bump is also a ``generation``
        bump, never the other way around.
        """
        return self._stats_epoch

    def start_tracking(self) -> Delta:
        """Attach and return a fresh :class:`Delta` recorder.

        Until :meth:`stop_tracking`, every added node/edge is recorded
        in the delta (and retracted again if removed while tracked).
        Trackers nest; each records independently.
        """
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
        """Attach an undo journal (an object with an ``entries`` list).

        Every subsequent mutation appends one inverse-describing entry
        to ``journal.entries``; see :mod:`repro.txn.journal` for the
        entry vocabulary and the reverse-replay rollback.  Entries
        carry interned label ids (ints), not strings.
        """
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

    def fork(self) -> "GraphStore":
        """Return an O(1) frozen snapshot of this store (the MVCC publish path).

        The snapshot shares *every* container with this store; nothing
        is copied at fork time.  A store writes a container in place
        only when the container carries the store's fork epoch, and
        otherwise first replaces it with ``clone(epoch)``.  Forking
        moves a live parent to a fresh epoch, so its first write to each
        shared column clones that column once: the bytes copied follow
        the changes, not the store.  The top-level dicts, the slot and
        id columns, and the two print maps (slot -> print value and the
        (label, print value) index) are stamped as three groups
        (``_dicts_epoch``, ``_nodes_epoch``, ``_prints_epoch``).  The
        print maps are privatized only by a write to a print, and the
        slot map holds only printable slots: a commit that adds an
        object node copies no container the size of the store for the
        collector to walk.  Neighbour sets and frozenset views are
        memoized *on the shared columns*, so both sides return the
        identical objects until the live side writes to that column.

        The snapshot refuses every mutator; readers may use, fork or
        copy it concurrently without touching this store.  Trackers and
        journals never carry over; the compiled plan cache is *shared*
        — entries are keyed by ``stats_epoch``, so versions at
        different epochs coexist in one cache.
        """
        if self._plan_cache is None and not self._frozen:
            # pre-create so all versions share one epoch-keyed cache
            self._plan_cache = OrderedDict()
        clone = self._share()
        clone._frozen = True
        clone._plan_cache = self._plan_cache
        return clone

    def _share(self) -> "GraphStore":
        """A clone sharing every container with this store; the caller
        sets ``_frozen`` and ``_plan_cache``."""
        clone = GraphStore.__new__(GraphStore)
        clone._slot_label = self._slot_label
        clone._slot_print = self._slot_print
        clone._slot_id = self._slot_id
        clone._id_map = self._id_map
        clone._free = self._free
        clone._ids = self._ids
        clone._members = self._members
        clone._prints = self._prints
        clone._ecols = self._ecols
        clone._out_stats = self._out_stats
        clone._in_stats = self._in_stats
        clone._next_id = self._next_id
        clone._edge_count = self._edge_count
        clone._generation = self._generation
        clone._stats_epoch = self._stats_epoch
        clone._trackers = []
        clone._journals = []
        # no shared container carries a fresh epoch, and no epoch is 0
        clone._epoch = next(_FORK_EPOCHS)
        clone._dicts_epoch = clone._nodes_epoch = clone._prints_epoch = 0
        if not self._frozen:
            # the live parent must now copy on write too; a frozen parent
            # never mutates, so forking it is read-only (and thread-safe)
            self._epoch = next(_FORK_EPOCHS)
        return clone

    def _before_write(self) -> None:
        """Mutator prologue: reject frozen stores, privatize shared dicts."""
        if self._frozen:
            raise GraphStoreError(
                "store is frozen (a published MVCC snapshot); "
                "copy() yields a mutable clone"
            )
        if self._dicts_epoch != self._epoch:
            self._members = dict(self._members)
            self._ecols = dict(self._ecols)
            self._out_stats = dict(self._out_stats)
            self._in_stats = dict(self._in_stats)
            self._dicts_epoch = self._epoch

    def _own_node_cols(self) -> None:
        """Privatize the slot and id columns before a node write."""
        epoch = self._epoch
        if self._nodes_epoch == epoch:
            return
        self._slot_label = self._slot_label[:]
        self._slot_id = self._slot_id[:]
        self._id_map = self._id_map.clone()
        self._free = list(self._free)
        self._ids = self._ids.clone(epoch)
        self._nodes_epoch = epoch

    def _own_prints(self) -> None:
        """Privatize the slot -> print map and the (label, print) index
        before a print write; a write that touches no print copies neither."""
        if self._prints_epoch != self._epoch:
            self._slot_print = dict(self._slot_print)
            self._prints = dict(self._prints)
            self._prints_epoch = self._epoch

    def _own(self, table: Dict[int, Any], key: int, factory: Callable[..., Any]) -> Any:
        """``table[key]`` made writable in place: created by ``factory``
        when missing, cloned when it carries another store's epoch."""
        col = table.get(key)
        if col is None:
            col = table[key] = factory(epoch=self._epoch)
        elif col.epoch != self._epoch:
            col = table[key] = col.clone(self._epoch)
        return col

    def _put_print(self, slot: int, node_id: int, lid: int, value: Any) -> None:
        self._own_prints()
        self._slot_print[slot] = value
        key = (lid, value)
        self._prints[key] = self._prints.get(key, EMPTY_SET) | {node_id}

    def _drop_print(self, slot: int, node_id: int, lid: int, value: Any) -> None:
        self._own_prints()
        del self._slot_print[slot]
        key = (lid, value)
        rest = self._prints[key] - {node_id}
        if rest:
            self._prints[key] = rest
        else:
            del self._prints[key]

    # ------------------------------------------------------------------
    # node operations
    # ------------------------------------------------------------------
    def add_node(self, label: str, print_value: Any = NO_PRINT, node_id: Optional[int] = None) -> int:
        """Create a node with ``label`` and optional print value.

        Returns the node id — fresh from the counter, or ``node_id``
        when given (used to keep ids aligned between a pattern and its
        crossed extensions; the counter skips past explicit ids).
        """
        self._before_write()
        if node_id is None:
            node_id = self._next_id
            if node_id >= _ID_RANGE[1]:
                raise GraphStoreError(f"node id counter exhausted at {node_id}")
            self._next_id += 1
        else:
            if not _ID_RANGE[0] <= node_id < _ID_RANGE[1]:
                raise GraphStoreError(f"node id {node_id} is outside [-2**63, 2**63 - 2]")
            if self._id_map.get(node_id) >= 0:
                raise GraphStoreError(f"node id {node_id} already exists")
            self._next_id = max(self._next_id, node_id + 1)
        lid = intern_label(label)
        self._own_node_cols()
        if self._free:
            slot = self._free.pop()
            self._slot_label[slot] = lid
            self._slot_id[slot] = node_id
        else:
            slot = len(self._slot_label)
            self._slot_label.append(lid)
            self._slot_id.append(node_id)
        if print_value is not NO_PRINT:
            self._put_print(slot, node_id, lid, print_value)
        self._id_map.set(node_id, slot)
        self._ids.add(node_id)
        self._own(self._members, lid, IntColumn).add(node_id)
        self._generation += 1
        self._stats_epoch += 1
        for tracker in self._trackers:
            tracker.record_node(node_id)
        for journal in self._journals:
            journal.entries.append(("add_node", node_id, lid, print_value))
        return node_id

    def remove_node(self, node_id: int) -> None:
        """Delete a node together with all its incident edges."""
        slot = self._require_slot(node_id)
        self._before_write()
        for edge in list(self.edges_of(node_id)):
            self.remove_edge(edge.source, edge.label, edge.target)
        lid = self._slot_label[slot]
        print_value = self._slot_print.get(slot, NO_PRINT)
        self._own_node_cols()
        self._own(self._members, lid, IntColumn).discard(node_id)
        if print_value is not NO_PRINT:
            self._drop_print(slot, node_id, lid, print_value)
        self._slot_label[slot] = -1
        self._slot_id[slot] = -1
        self._id_map.pop(node_id)
        self._free.append(slot)
        self._ids.discard(node_id)
        self._generation += 1
        self._stats_epoch += 1
        for tracker in self._trackers:
            tracker.retract_node(node_id)
        # incident edges journalled their own removals above, so a
        # reverse replay re-creates the node before re-adding them
        for journal in self._journals:
            journal.entries.append(("remove_node", node_id, lid, print_value))

    def set_print(self, node_id: int, print_value: Any) -> None:
        """Attach or replace the print value of ``node_id``."""
        slot = self._require_slot(node_id)
        self._before_write()
        lid = self._slot_label[slot]
        old_value = self._slot_print.get(slot, NO_PRINT)
        if old_value is not NO_PRINT:
            self._drop_print(slot, node_id, lid, old_value)
        if print_value is not NO_PRINT:
            self._put_print(slot, node_id, lid, print_value)
        self._generation += 1
        for journal in self._journals:
            journal.entries.append(("set_print", node_id, old_value, print_value))

    def has_node(self, node_id: int) -> bool:
        """Whether ``node_id`` exists in the store."""
        try:
            return self._id_map.get(node_id) >= 0
        except TypeError:
            return False

    def node(self, node_id: int) -> NodeRecord:
        """Return a :class:`NodeRecord` snapshot for ``node_id``."""
        slot = self._require_slot(node_id)
        return NodeRecord(label_name(self._slot_label[slot]), self._slot_print.get(slot, NO_PRINT))

    def label_of(self, node_id: int) -> str:
        """Return the label of ``node_id`` (the canonical interned str)."""
        return label_name(self._slot_label[self._require_slot(node_id)])

    def label_id_of(self, node_id: int) -> int:
        """Return the interned label id of ``node_id`` (no allocation)."""
        return self._slot_label[self._require_slot(node_id)]

    def print_of(self, node_id: int) -> Any:
        """Return the print value of ``node_id`` (or :data:`NO_PRINT`)."""
        return self._slot_print.get(self._require_slot(node_id), NO_PRINT)

    def nodes(self) -> Iterator[int]:
        """Iterate over node ids in ascending (creation) order.

        Backed by the maintained sorted id column — O(1) warm rather
        than sorting the full id set on every call.
        """
        return iter(self._ids.merged())

    def nodes_with_label(self, label: str) -> FrozenSet[int]:
        """All node ids carrying ``label`` (a frozenset memoized on the
        label's membership column).

        The returned object is identical across calls until a node
        with this label is added or removed.
        """
        col = self._members.get(LABELS.find(label))
        return EMPTY_SET if col is None else col.as_frozenset()

    def nodes_with_print(self, label: str, print_value: Any) -> FrozenSet[int]:
        """All node ids with the given label *and* print value (the
        stored bucket: identical across calls until it changes)."""
        lid = lookup_label(label)
        if lid < 0:
            return EMPTY_SET
        return self._prints.get((lid, print_value), EMPTY_SET)

    def labels_in_use(self) -> FrozenSet[str]:
        """The set of node labels that occur in the store."""
        return frozenset(
            label_name(lid) for lid, col in self._members.items() if col.count
        )

    @property
    def node_count(self) -> int:
        """Number of nodes in the store."""
        return self._ids.count

    @property
    def next_id(self) -> int:
        """The id the next ``add_node`` call would hand out."""
        return self._next_id

    # ------------------------------------------------------------------
    # edge operations
    # ------------------------------------------------------------------
    def add_edge(self, source: int, label: str, target: int) -> bool:
        """Insert the edge; return ``False`` if it was already present."""
        s_slot = self._require_slot(source)
        t_slot = self._require_slot(target)
        elid = lookup_label(label)
        existing = self._ecols.get(elid) if elid >= 0 else None
        if existing is not None and existing.has(source, target):
            return False
        self._before_write()
        if elid < 0:
            elid = intern_label(label)
        self._own(self._ecols, elid, EdgeColumn).add(source, target)
        out_key = (self._slot_label[s_slot], elid)
        self._out_stats[out_key] = self._out_stats.get(out_key, 0) + 1
        in_key = (self._slot_label[t_slot], elid)
        self._in_stats[in_key] = self._in_stats.get(in_key, 0) + 1
        self._edge_count += 1
        self._generation += 1
        self._stats_epoch += 1
        for tracker in self._trackers:
            tracker.record_edge((source, label, target))
        for journal in self._journals:
            journal.entries.append(("add_edge", source, elid, target))
        return True

    def remove_edge(self, source: int, label: str, target: int) -> bool:
        """Delete the edge; return ``False`` if it was not present."""
        elid = lookup_label(label)
        existing = self._ecols.get(elid) if elid >= 0 else None
        if existing is None or not existing.has(source, target):
            return False
        self._before_write()
        self._own(self._ecols, elid, EdgeColumn).remove(source, target)
        out_key = (self._slot_label[self._id_map.get(source)], elid)
        if self._out_stats[out_key] == 1:
            del self._out_stats[out_key]
        else:
            self._out_stats[out_key] -= 1
        in_key = (self._slot_label[self._id_map.get(target)], elid)
        if self._in_stats[in_key] == 1:
            del self._in_stats[in_key]
        else:
            self._in_stats[in_key] -= 1
        self._edge_count -= 1
        self._generation += 1
        self._stats_epoch += 1
        for tracker in self._trackers:
            tracker.retract_edge((source, label, target))
        for journal in self._journals:
            journal.entries.append(("remove_edge", source, elid, target))
        return True

    def has_edge(self, source: int, label: str, target: int) -> bool:
        """Whether the edge ``source --label--> target`` exists."""
        elid = lookup_label(label)
        if elid < 0:
            return False
        col = self._ecols.get(elid)
        return col is not None and col.has(source, target)

    def out_neighbours(self, node_id: int, label: str) -> FrozenSet[int]:
        """Targets of ``label``-edges leaving ``node_id``.

        A frozenset memoized on the label's column: the identical object
        is returned until an edge of that label changes.
        """
        col = self._ecols.get(LABELS.find(label))
        return EMPTY_SET if col is None else col.out_sets[node_id]

    def in_neighbours(self, node_id: int, label: str) -> FrozenSet[int]:
        """Sources of ``label``-edges arriving at ``node_id``.

        Memoized like :meth:`out_neighbours`.
        """
        col = self._ecols.get(LABELS.find(label))
        return EMPTY_SET if col is None else col.in_sets[node_id]

    def neighbour_sets(self, label: str, direction: str) -> Mapping[int, FrozenSet[int]]:
        """The ``node -> frozenset`` map behind :meth:`out_neighbours`
        (``direction == "out"``) or :meth:`in_neighbours` (``"in"``).

        Hot loops resolve it once and subscript it per probe.  It
        describes the label's edges as of this call; re-fetch it after
        writing to the store.
        """
        col = self._ecols.get(LABELS.find(label))
        if col is None:
            # a label without edges: every probe misses to the empty set
            return SpanSets(EMPTY_ARRAY, EMPTY_ARRAY, EMPTY_ARRAY)
        return col.out_sets if direction == "out" else col.in_sets

    def out_labels(self, node_id: int) -> FrozenSet[str]:
        """Edge labels leaving ``node_id``."""
        self._require_slot(node_id)
        return frozenset(
            label_name(elid)
            for elid, col in self._ecols.items()
            if col.has_source(node_id)
        )

    def in_labels(self, node_id: int) -> FrozenSet[str]:
        """Edge labels arriving at ``node_id``."""
        self._require_slot(node_id)
        return frozenset(
            label_name(elid)
            for elid, col in self._ecols.items()
            if col.has_target(node_id)
        )

    def out_edges(self, node_id: int) -> Iterator[Edge]:
        """Iterate over edges leaving ``node_id`` deterministically."""
        self._require_slot(node_id)
        for label, col in self._sorted_ecols():
            for target in col.out_list(node_id):
                yield Edge(node_id, label, target)

    def in_edges(self, node_id: int) -> Iterator[Edge]:
        """Iterate over edges arriving at ``node_id`` deterministically."""
        self._require_slot(node_id)
        for label, col in self._sorted_ecols():
            for source in col.in_list(node_id):
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
        """Iterate over all edges, deterministically ordered
        (ascending source id, then label, then target)."""
        cols = self._sorted_ecols()
        if not cols:
            return
        for node_id in self.nodes():
            for label, col in cols:
                for target in col.out_list(node_id):
                    yield Edge(node_id, label, target)

    def _sorted_ecols(self) -> List[Tuple[str, EdgeColumn]]:
        return sorted(
            ((label_name(elid), col) for elid, col in self._ecols.items() if col.count),
            key=lambda pair: pair[0],
        )

    def _ecol_for(self, label: str) -> Optional[EdgeColumn]:
        return self._ecols.get(LABELS.find(label))

    @property
    def edge_count(self) -> int:
        """Number of edges in the store."""
        return self._edge_count

    # ------------------------------------------------------------------
    # secondary indexes and cardinality statistics (planner support)
    # ------------------------------------------------------------------
    def edges_with_label(self, label: str) -> FrozenSet[Tuple[int, int]]:
        """All ``(source, target)`` pairs of ``label``-edges.

        A frozenset memoized on the label's column: the identical object
        is returned until an edge with this label is added or removed.
        """
        col = self._ecol_for(label)
        return EMPTY_SET if col is None else col.as_frozenset()

    def edge_labels_in_use(self) -> FrozenSet[str]:
        """The set of edge labels that occur in the store."""
        return frozenset(
            label_name(elid) for elid, col in self._ecols.items() if col.count
        )

    def sorted_nodes_with_label(self, label: str) -> array:
        """All node ids carrying ``label`` as a sorted ``array('q')``.

        The maintained membership column itself (merged view) — O(1)
        warm; the executor iterates it as a scan node's seeds.  Callers
        must not mutate the returned array.
        """
        lid = lookup_label(label)
        col = self._members.get(lid) if lid >= 0 else None
        if col is None:
            return EMPTY_ARRAY
        return col.merged()

    def label_count(self, label: str) -> int:
        """Number of nodes carrying ``label`` (O(1))."""
        lid = lookup_label(label)
        col = self._members.get(lid) if lid >= 0 else None
        return 0 if col is None else col.count

    def edge_label_count(self, label: str) -> int:
        """Number of edges carrying ``label`` (O(1))."""
        col = self._ecol_for(label)
        return 0 if col is None else col.count

    def out_degree_total(self, node_label: str, edge_label: str) -> int:
        """How many ``edge_label`` edges leave ``node_label`` nodes (O(1)).

        Divided by :meth:`label_count`, this is the average out-degree
        the planner uses to cost an index-probe extension.
        """
        lid = lookup_label(node_label)
        elid = lookup_label(edge_label)
        if lid < 0 or elid < 0:
            return 0
        return self._out_stats.get((lid, elid), 0)

    def in_degree_total(self, node_label: str, edge_label: str) -> int:
        """How many ``edge_label`` edges arrive at ``node_label`` nodes (O(1))."""
        lid = lookup_label(node_label)
        elid = lookup_label(edge_label)
        if lid < 0 or elid < 0:
            return 0
        return self._in_stats.get((lid, elid), 0)

    # ------------------------------------------------------------------
    # resident-size accounting (STATS gauges, benchmarks)
    # ------------------------------------------------------------------
    def store_bytes(self) -> int:
        """Approximate resident bytes of the store's core columns.

        Counts the slot columns, id map, membership and adjacency
        columns and the index/statistics dicts; print *values* are
        shared Python objects and are not traversed.  Cached frozenset
        views are derived data and excluded.
        """
        total = self._slot_label.itemsize * len(self._slot_label)
        total += self._slot_id.itemsize * len(self._slot_id)
        total += sys.getsizeof(self._slot_print)
        total += self._id_map.nbytes()
        total += sys.getsizeof(self._free) + self._ids.nbytes()
        total += sys.getsizeof(self._members) + sys.getsizeof(self._ecols)
        for col in self._members.values():
            total += col.nbytes()
        for ecol in self._ecols.values():
            total += ecol.nbytes()
        total += sys.getsizeof(self._prints)
        for nodes in self._prints.values():
            total += sys.getsizeof(nodes)
        total += sys.getsizeof(self._out_stats) + sys.getsizeof(self._in_stats)
        return total

    # ------------------------------------------------------------------
    # whole-graph operations
    # ------------------------------------------------------------------
    def copy(self) -> "GraphStore":
        """Copy the store; node ids and the id counter carry over.

        The one mutable clone, of a live or a frozen store alike: it
        shares every container under :meth:`fork`'s copy-on-write rule,
        so both sides keep deep-copy semantics but only pay for the
        containers they touch afterwards.  The compiled plan cache
        deliberately does not carry over (unlike :meth:`fork`, a copy is
        an independent database, not a version of this one).
        """
        clone = self._share()
        clone._frozen = False
        clone._plan_cache = None
        return clone

    def degree(self, node_id: int) -> int:
        """Total number of incident edge endpoints at ``node_id``."""
        self._require_slot(node_id)
        return sum(
            col.out_degree(node_id) + col.in_degree(node_id)
            for col in self._ecols.values()
        )

    def __len__(self) -> int:
        return self._ids.count

    def __contains__(self, node_id: object) -> bool:
        return self.has_node(node_id)  # type: ignore[arg-type]

    def __iter__(self) -> Iterator[int]:
        return self.nodes()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"GraphStore(nodes={self.node_count}, edges={self.edge_count})"

    # ------------------------------------------------------------------
    # bulk column access (checkpoint streaming)
    # ------------------------------------------------------------------
    def snapshot_columns(self) -> Dict[str, Any]:
        """Dense columns for bulk serialization (checkpoint format 2).

        Returns a dict with a *local* label table (so the document is
        self-contained across processes whose global interners differ):

        * ``labels`` — local-id-ordered label strings;
        * ``node_ids`` / ``node_labels`` — parallel lists (label =
          local id);
        * ``prints`` — ``[index, value]`` pairs into the node lists;
        * ``edges`` — ``[local label id, [s, t, s, t, ...]]`` pairs.
        """
        local: Dict[int, int] = {}
        labels: List[str] = []

        def localize(lid: int) -> int:
            local_id = local.get(lid)
            if local_id is None:
                local_id = local[lid] = len(labels)
                labels.append(label_name(lid))
            return local_id

        node_ids: List[int] = []
        node_labels: List[int] = []
        prints: List[List[Any]] = []
        id_map = self._id_map
        slot_label = self._slot_label
        slot_print = self._slot_print
        for index, node_id in enumerate(self._ids.merged()):
            slot = id_map.get(node_id)
            node_ids.append(node_id)
            node_labels.append(localize(slot_label[slot]))
            value = slot_print.get(slot, NO_PRINT)
            if value is not NO_PRINT:
                prints.append([index, value])
        edges: List[List[Any]] = []
        for elid in sorted(
            (elid for elid, col in self._ecols.items() if col.count),
            key=label_name,
        ):
            flat: List[int] = []
            for source, target in self._ecols[elid].pairs():
                flat.append(source)
                flat.append(target)
            edges.append([localize(elid), flat])
        return {
            "labels": labels,
            "node_ids": node_ids,
            "node_labels": node_labels,
            "prints": prints,
            "edges": edges,
            "next_id": self._next_id,
        }

    @classmethod
    def from_columns(cls, columns: Mapping[str, Any]) -> "GraphStore":
        """Build a store in bulk from :meth:`snapshot_columns`-shaped columns.

        The one constructor for a whole database: every document
        :mod:`repro.io.serialize` reads (format 1 and format 2, hence
        ``LOAD``, ``CREATE``, checkpoints, WAL reset records and replica
        resyncs) ends here.  Columns go straight into sorted base
        arrays, with no overlay and no flush, and ``generation`` /
        ``stats_epoch`` end at nodes + edges, exactly as if each node
        and edge had been added one at a time.  A pair repeated within
        one label's list is one edge.

        The columns are outside input, so they are checked before
        anything is interned or built.  A violation raises
        :class:`~repro.core.errors.SerializationError` naming the column
        and position: labels that are not distinct strings, node ids
        that are not distinct integers in ``[-2**63, 2**63 - 2]``, a
        ``next_id`` outside ``[-2**63, 2**63 - 1]``, label or print indexes
        out of range or repeated, unhashable print values, and edge
        endpoints that name no node.  GOOD's instance constraints are
        :meth:`repro.core.instance.Instance.validate`'s job.
        """
        for key in ("labels", "node_ids", "node_labels", "prints", "edges"):
            if not isinstance(columns.get(key), list):
                raise SerializationError(f"column {key!r} is missing or not an array")
        labels = columns["labels"]
        node_ids = columns["node_ids"]
        node_labels = columns["node_labels"]
        next_id = columns.get("next_id", 0)
        local_of = _check_node_columns(labels, node_ids, node_labels)
        if _first_bad_cell([next_id], (_ID_RANGE[0], _ID_RANGE[1] + 1)) >= 0:
            raise SerializationError(
                f"'next_id' must be an integer in [-2**63, 2**63 - 1], got {next_id!r}"
            )
        prints = _check_prints(columns["prints"], len(node_ids))
        edges = _check_edges(columns["edges"], labels, local_of)

        store = cls()
        lids = [intern_label(name) for name in labels]
        slot_label = array("q", [lids[local_id] for local_id in node_labels])
        store._slot_label = slot_label
        store._slot_id = array("q", node_ids)
        slot_print = store._slot_print
        id_map = store._id_map
        members: Dict[int, List[int]] = {}
        for slot, node_id in enumerate(node_ids):
            id_map.set(node_id, slot)
            members.setdefault(slot_label[slot], []).append(node_id)
        store._ids = IntColumn(array("q", sorted(node_ids)))
        for lid, nodes in members.items():
            store._members[lid] = IntColumn(array("q", sorted(nodes)), store._epoch)
        for index, value in prints:
            slot_print[index] = value
            key = (slot_label[index], value)
            store._prints[key] = store._prints.get(key, EMPTY_SET) | {node_ids[index]}
        edge_count = 0
        for local_id, pairs in edges:
            elid = lids[local_id]
            store._ecols[elid] = EdgeColumn.from_pairs(pairs, store._epoch)
            edge_count += len(pairs)
            for stats, end in ((store._out_stats, 0), (store._in_stats, 1)):
                for local_label, count in Counter(local_of[pair[end]] for pair in pairs).items():
                    stats[(lids[local_label], elid)] = count
        store._edge_count = edge_count
        store._next_id = max(next_id, max(node_ids) + 1) if node_ids else next_id
        store._generation = store._stats_epoch = len(node_ids) + edge_count
        return store

    def labels_of(self, node_ids: Iterable[int]) -> List[str]:
        """The label of each of ``node_ids``, in order (a bulk
        :meth:`label_of`; every id must name a node)."""
        get = self._id_map.get
        slot_label = self._slot_label
        return [label_name(slot_label[get(node_id)]) for node_id in node_ids]

    def print_buckets(self) -> Iterator[Tuple[str, Any, FrozenSet[int]]]:
        """Every ``(label, print value, nodes carrying both)`` bucket,
        one per distinct label and value in use."""
        for (lid, value), nodes in self._prints.items():
            yield label_name(lid), value, nodes

    def out_csr(self, label: str) -> Tuple[array, array, array]:
        """``label``'s forward CSR ``(sources, offsets, targets)`` with
        any pending overlay folded in: the targets of ``sources[i]`` are
        ``targets[offsets[i]:offsets[i + 1]]``, ascending.  Read-only."""
        col = self._ecol_for(label)
        if col is None:
            return EMPTY_ARRAY, array("q", (0,)), EMPTY_ARRAY
        return col.merged_arrays()[:3]

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------
    def _require_slot(self, node_id: int) -> int:
        try:
            slot = self._id_map.get(node_id)
        except TypeError:
            slot = -1
        if slot < 0:
            raise GraphStoreError(f"unknown node id {node_id!r}")
        return slot


# ----------------------------------------------------------------------
# column checks for GraphStore.from_columns
# ----------------------------------------------------------------------

#: Node ids live in ``array('q')`` columns.  The top int64 value is
#: not an id, so ``id + 1`` (the counter after it) is always an int64.
_ID_RANGE = (-(2**63), 2**63 - 1)


def _first_bad_cell(values: List[Any], bounds: Tuple[int, int]) -> int:
    """Position of the first cell of ``values`` that is not an ``int``
    (bools are not) in ``range(*bounds)``, or -1 when every cell is."""
    if set(map(type, values)) <= {int} and (
        not values or (min(values) >= bounds[0] and max(values) < bounds[1])
    ):
        return -1
    for position, value in enumerate(values):
        if type(value) is not int or not bounds[0] <= value < bounds[1]:
            return position
    return -1


def _check_node_columns(labels: List[Any], node_ids: List[Any], node_labels: List[Any]) -> Dict[int, int]:
    """Check the label table and node columns; return ``node id ->
    local label id``."""
    for position, name in enumerate(labels):
        if not isinstance(name, str):
            raise SerializationError(f"labels[{position}]: label must be a string, got {name!r}")
    if len(set(labels)) != len(labels):
        position = next(i for i, name in enumerate(labels) if name in labels[:i])
        raise SerializationError(f"labels[{position}]: label {labels[position]!r} listed twice")
    if len(node_ids) != len(node_labels):
        raise SerializationError("'node_ids' and 'node_labels' columns differ in length")
    position = _first_bad_cell(node_ids, _ID_RANGE)
    if position >= 0:
        raise SerializationError(
            f"node_ids[{position}]: node id must be a 64-bit integer, got "
            f"{node_ids[position]!r} (ids run from -2**63 to 2**63 - 2)"
        )
    position = _first_bad_cell(node_labels, (0, len(labels)))
    if position >= 0:
        raise SerializationError(
            f"node_labels[{position}]: label index {node_labels[position]!r} out of range"
        )
    local_of = dict(zip(node_ids, node_labels))
    if len(local_of) != len(node_ids):
        seen: Set[int] = set()
        for position, node_id in enumerate(node_ids):
            if node_id in seen:
                raise SerializationError(f"node_ids[{position}]: duplicate node id {node_id}")
            seen.add(node_id)
    return local_of


def _check_prints(prints: List[Any], node_count: int) -> List[Tuple[int, Any]]:
    """Check the ``[node index, value]`` print cells; return them as pairs."""
    checked: List[Tuple[int, Any]] = []
    taken: Set[int] = set()
    for position, entry in enumerate(prints):
        if not isinstance(entry, (list, tuple)) or len(entry) != 2:
            raise SerializationError(f"prints[{position}]: must be a [node index, value] pair")
        index, value = entry
        if type(index) is not int or not 0 <= index < node_count:
            raise SerializationError(f"prints[{position}]: node index {index!r} out of range")
        if index in taken:
            raise SerializationError(f"prints[{position}]: node index {index} has a second print value")
        try:
            hash(value)
        except TypeError:
            raise SerializationError(f"prints[{position}]: print value {value!r} is not hashable") from None
        taken.add(index)
        checked.append((index, value))
    return checked


def _check_edges(
    edges: List[Any], labels: List[str], local_of: Dict[int, int]
) -> List[Tuple[int, List[Tuple[int, int]]]]:
    """Check the ``[label index, flat pairs]`` edge cells; return each
    label's distinct pairs, sorted."""
    checked: List[Tuple[int, List[Tuple[int, int]]]] = []
    taken: Set[int] = set()
    for position, entry in enumerate(edges):
        if not isinstance(entry, (list, tuple)) or len(entry) != 2:
            raise SerializationError(f"edges[{position}]: must be a [label index, pairs] pair")
        local_id, flat = entry
        if type(local_id) is not int or not 0 <= local_id < len(labels):
            raise SerializationError(f"edges[{position}]: label index {local_id!r} out of range")
        if local_id in taken:
            raise SerializationError(f"edges[{position}]: edge label {labels[local_id]!r} listed twice")
        if not isinstance(flat, list) or len(flat) % 2:
            raise SerializationError(f"edges[{position}]: pairs must be a flat array of even length")
        # the type test keeps bools and floats from aliasing integer ids
        if not (set(map(type, flat)) <= {int} and local_of.keys() >= set(flat)):
            cell = next(i for i, node_id in enumerate(flat) if type(node_id) is not int or node_id not in local_of)
            end = "source" if cell % 2 == 0 else "target"
            raise SerializationError(f"edges[{position}][{cell}]: {end} {flat[cell]!r} names no node")
        taken.add(local_id)
        checked.append((local_id, sorted(set(zip(flat[0::2], flat[1::2])))))
    return checked
