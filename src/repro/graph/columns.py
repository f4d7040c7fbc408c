"""Columnar storage primitives behind :class:`repro.graph.store.GraphStore`.

Three building blocks, all designed around ``array('q')`` so a million
nodes cost megabytes instead of hundreds of megabytes of boxed objects:

* :class:`LabelInterner` — a process-global, append-only string table.
  Labels become small ints (*label ids*); every column, journal entry
  and redo record carries the id, and the canonical string object is
  shared so equality checks on decoded labels hit the pointer fast
  path.
* :class:`IntColumn` — a sorted set of 64-bit ints as a flat array
  plus a bounded pending overlay (recent adds/removes), merged back
  into the base array when the overlay outgrows a proportional
  threshold (the logarithmic method: total merge work stays O(1)
  amortised per mutation).
* :class:`EdgeColumn` — one edge label's adjacency as CSR arrays in
  *both* directions (targets grouped by source, sources grouped by
  target) with the same pending-overlay discipline, so the adjacency
  is never rebuilt per statistics epoch.

The read-side memos live on the columns too: per-node neighbour
frozensets (:class:`SpanSets` over the base arrays, shared by every
clone until a flush replaces the arrays, plus an :class:`OverlaySets`
for the current overlay), and one frozenset of a column's whole
contents.  Every mutation drops the memos that could have changed, so
copying a column never copies a memo and a write costs O(changes).

Mutating methods must only ever be called by the store whose fork
epoch the column's ``epoch`` carries; any other store first replaces
the column with ``clone(its epoch)``.  Read methods never modify the
base or the overlay; they may memoize a merged result in a single
attribute assignment or dict insert, which is GIL-atomic and
idempotent, so frozen snapshots shared across reader threads stay
safe.
"""

from __future__ import annotations

import sys
import threading
from array import array
from bisect import bisect_left
from collections import Counter
from itertools import accumulate
from operator import itemgetter
from typing import Dict, Iterator, List, Optional, Set, Tuple

#: Overlay merges trigger once the pending set outgrows
#: ``max(_FLUSH_MIN, base_size >> _FLUSH_SHIFT)`` — proportional
#: thresholds keep bulk loads O(1) amortised per insert while bounding
#: the overlay a reader has to merge over.
_FLUSH_MIN = 64
_FLUSH_SHIFT = 3

#: Shared empty sorted array (immutable-by-convention).
EMPTY_ARRAY = array("q")

#: The empty set every neighbour-set miss returns (shared, immutable).
EMPTY_SET: frozenset = frozenset()


class LabelInterner:
    """Append-only ``str ↔ small int`` table shared by every store.

    Interning is idempotent and ids are dense (0, 1, 2, ...), so columns
    can use them as array values and dict keys interchangeably.  The
    table only ever grows; lookups are lock-free dict reads and inserts
    take a lock only on the miss path.
    """

    __slots__ = ("_ids", "_names", "_lock", "find")

    def __init__(self) -> None:
        self._ids: Dict[str, int] = {}
        self._names: List[str] = []
        self._lock = threading.Lock()
        #: ``name -> id``, or ``None`` when never interned: the bare
        #: dict lookup, for read paths where a Python frame per call
        #: shows (store accessors keyed by label id)
        self.find = self._ids.get

    def intern(self, name: str) -> int:
        """Return the id for ``name``, assigning the next id on a miss."""
        lid = self._ids.get(name)
        if lid is not None:
            return lid
        with self._lock:
            lid = self._ids.get(name)
            if lid is None:
                lid = len(self._names)
                self._names.append(sys.intern(name))
                self._ids[name] = lid
            return lid

    def lookup(self, name: str) -> int:
        """The id for ``name`` if already interned, else ``-1``.

        Read paths use this so querying a label the process has never
        seen does not grow the table.
        """
        lid = self._ids.get(name)
        return -1 if lid is None else lid

    def name(self, lid: int) -> str:
        """The canonical string for ``lid`` (same object every call)."""
        return self._names[lid]

    def __len__(self) -> int:
        return len(self._names)

    def table_bytes(self) -> int:
        """Approximate resident bytes of the intern table."""
        names = self._names
        return (
            sys.getsizeof(self._ids)
            + sys.getsizeof(names)
            + sum(sys.getsizeof(name) for name in names)
        )

    def snapshot(self) -> List[str]:
        """The id-ordered label list (for checkpoint headers)."""
        return list(self._names)


#: The process-wide interner.  Journals and redo records carry its ids;
#: anything that crosses a process boundary (WAL, checkpoints) must be
#: decoded to strings first and re-interned on the far side.
LABELS = LabelInterner()
intern_label = LABELS.intern
label_name = LABELS.name
lookup_label = LABELS.lookup


def merge_sorted(base: array, dels: Set[int], adds: List[int]) -> array:
    """Merge a sorted base array with sorted adds, dropping ``dels``."""
    out = array("q")
    if not dels and not adds:
        out.frombytes(base.tobytes())
        return out
    append = out.append
    i = j = 0
    n, m = len(base), len(adds)
    while i < n and j < m:
        left, right = base[i], adds[j]
        if left < right:
            if left not in dels:
                append(left)
            i += 1
        else:
            append(right)
            j += 1
    while i < n:
        if base[i] not in dels:
            append(base[i])
        i += 1
    while j < m:
        append(adds[j])
        j += 1
    return out


class IdSlotMap:
    """``external node id -> slot`` with a dense-array fast path.

    Ids handed out by the store counter are dense, so the common case
    is a direct ``array('q')`` indexed by id (-1 = absent).  Explicit
    sparse or negative ids (``add_node(node_id=...)``) fall back to an
    overflow dict rather than ballooning the array.  An id inside the
    array's range lives only in the array: when the array grows over
    ids parked in the overflow, they move into it, so ``get`` stays one
    subscript on the dense path and never has to consult both.
    """

    __slots__ = ("_direct", "_overflow")

    def __init__(self) -> None:
        self._direct = array("q")
        self._overflow: Dict[int, int] = {}

    def get(self, node_id: int) -> int:
        """The slot for ``node_id``, or ``-1`` when absent."""
        if 0 <= node_id < len(self._direct):
            return self._direct[node_id]
        return self._overflow.get(node_id, -1)

    def set(self, node_id: int, slot: int) -> None:
        direct = self._direct
        if 0 <= node_id < len(direct):
            direct[node_id] = slot
            return
        if 0 <= node_id <= len(direct) + max(1024, len(direct)):
            start = len(direct)
            direct.extend([-1] * (node_id + 1 - start))
            direct[node_id] = slot
            overflow = self._overflow
            if overflow:
                for parked in [key for key in overflow if start <= key < len(direct)]:
                    direct[parked] = overflow.pop(parked)
            return
        self._overflow[node_id] = slot

    def pop(self, node_id: int) -> None:
        if 0 <= node_id < len(self._direct):
            self._direct[node_id] = -1
        else:
            self._overflow.pop(node_id, None)

    def clone(self) -> "IdSlotMap":
        twin = IdSlotMap.__new__(IdSlotMap)
        twin._direct = self._direct[:]
        twin._overflow = dict(self._overflow)
        return twin

    def nbytes(self) -> int:
        return self._direct.itemsize * len(self._direct) + sys.getsizeof(self._overflow)


class IntColumn:
    """A sorted set of ints: flat base array + bounded pending overlay.

    Invariants: ``adds`` is disjoint from the base and from ``dels``;
    ``dels`` is a subset of the base.  ``count`` is maintained so
    cardinality stays O(1).
    """

    __slots__ = ("base", "adds", "dels", "count", "epoch", "_merged", "_frozenset")

    def __init__(self, values: Optional[array] = None, epoch: int = 0) -> None:
        self.base: array = values if values is not None else array("q")
        self.adds: Set[int] = set()
        self.dels: Set[int] = set()
        self.count: int = len(self.base)
        self.epoch = epoch
        self._merged: Optional[array] = None
        self._frozenset: Optional[frozenset] = None

    def __contains__(self, value: int) -> bool:
        if value in self.adds:
            return True
        if value in self.dels:
            return False
        base = self.base
        position = bisect_left(base, value)
        return position < len(base) and base[position] == value

    def add(self, value: int) -> bool:
        """Insert ``value``; returns whether the set changed."""
        if value in self.dels:
            self.dels.remove(value)
        elif value in self.adds or self._in_base(value):
            return False
        else:
            self.adds.add(value)
        self.count += 1
        self._merged = self._frozenset = None
        self._maybe_flush()
        return True

    def discard(self, value: int) -> bool:
        """Remove ``value``; returns whether the set changed."""
        if value in self.adds:
            self.adds.remove(value)
        elif value not in self.dels and self._in_base(value):
            self.dels.add(value)
        else:
            return False
        self.count -= 1
        self._merged = self._frozenset = None
        self._maybe_flush()
        return True

    def _in_base(self, value: int) -> bool:
        base = self.base
        position = bisect_left(base, value)
        return position < len(base) and base[position] == value

    def _maybe_flush(self) -> None:
        if len(self.adds) + len(self.dels) > max(_FLUSH_MIN, len(self.base) >> _FLUSH_SHIFT):
            self.flush()

    def flush(self) -> None:
        """Fold the overlay into a fresh base array (writer-only)."""
        if self.adds or self.dels:
            self.base = merge_sorted(self.base, self.dels, sorted(self.adds))
            self.adds = set()
            self.dels = set()
        self._merged = None

    def merged(self) -> array:
        """The full sorted contents; read-only, memoized, never mutates
        the overlay (safe on shared/frozen columns)."""
        if not self.adds and not self.dels:
            return self.base
        merged = self._merged
        if merged is None:
            merged = merge_sorted(self.base, self.dels, sorted(self.adds))
            self._merged = merged
        return merged

    def as_frozenset(self) -> frozenset:
        """The contents as a frozenset, memoized: the identical object
        until the next ``add``/``discard`` (a flush keeps it)."""
        frozen = self._frozenset
        if frozen is None:
            frozen = self._frozenset = frozenset(self.merged())
        return frozen

    def __iter__(self) -> Iterator[int]:
        return iter(self.merged())

    def __len__(self) -> int:
        return self.count

    def clone(self, epoch: int) -> "IntColumn":
        """A twin writable at ``epoch``, sharing the (immutable-by-
        convention) base."""
        twin = IntColumn.__new__(IntColumn)
        twin.base = self.base
        twin.adds = set(self.adds)
        twin.dels = set(self.dels)
        twin.count = self.count
        twin.epoch = epoch
        twin._merged = self._merged
        twin._frozenset = self._frozenset
        return twin

    def nbytes(self) -> int:
        return (
            self.base.itemsize * len(self.base)
            + sys.getsizeof(self.adds)
            + sys.getsizeof(self.dels)
        )


def build_csr(pairs: List[Tuple[int, int]]) -> Tuple[array, array, array]:
    """``(keys, offs, values)`` CSR arrays from ``(key, value)`` pairs
    already sorted by key then value."""
    # a Counter keeps first-insertion order, which is key order here
    spans = Counter(map(itemgetter(0), pairs))
    offs = array("q", (0,))
    offs.extend(accumulate(spans.values()))
    return array("q", spans), offs, array("q", map(itemgetter(1), pairs))


def _merge_csr(
    keys: array,
    offs: array,
    values: array,
    dels: Set[Tuple[int, int]],
    adds: List[Tuple[int, int]],
) -> Tuple[array, array, array]:
    """Merge CSR base arrays with sorted add pairs minus ``dels``.

    ``dels`` pairs are in the same ``(key, value)`` orientation as the
    arrays.  Linear in the output plus the overlay sort done by the
    caller, so periodic merges keep the amortised cost per edge O(1).
    """
    out_keys = array("q")
    out_offs = array("q", (0,))
    out_vals = array("q")
    j = 0
    m = len(adds)
    current = None

    def emit(key: int, value: int) -> None:
        nonlocal current
        if key != current:
            if current is not None:
                out_offs.append(len(out_vals))
            out_keys.append(key)
            current = key
        out_vals.append(value)

    for index, key in enumerate(keys):
        lo, hi = offs[index], offs[index + 1]
        for position in range(lo, hi):
            value = values[position]
            while j < m and adds[j] < (key, value):
                emit(adds[j][0], adds[j][1])
                j += 1
            if dels and (key, value) in dels:
                continue
            emit(key, value)
    while j < m:
        emit(adds[j][0], adds[j][1])
        j += 1
    if current is not None:
        out_offs.append(len(out_vals))
    return out_keys, out_offs, out_vals


def csr_span(keys: array, offs: array, key: int) -> Tuple[int, int]:
    """The ``(lo, hi)`` span of ``key`` in a CSR (keys, offs) pair."""
    position = bisect_left(keys, key)
    if position < len(keys) and keys[position] == key:
        return offs[position], offs[position + 1]
    return 0, 0


class SpanSets(dict):
    """Lazy ``node -> frozenset`` views over one direction of CSR arrays.

    Subscripting builds the node's frozenset from its CSR span on first
    access and memoizes it (``__missing__``), so warm lookups are one
    C-level dict subscript — the fetch primitive of the compiled plan
    runners (:mod:`repro.plan.executor`).  Misses memoize the shared
    empty frozenset.  Like the arrays they derive from, span sets are
    immutable-by-convention and shared across clones and MVCC forks.
    """

    __slots__ = ("_keys", "_offs", "_vals")

    def __init__(self, keys: array, offs: array, vals: array) -> None:
        super().__init__()
        self._keys = keys
        self._offs = offs
        self._vals = vals

    def __missing__(self, node: int) -> frozenset:
        keys = self._keys
        position = bisect_left(keys, node)
        if position < len(keys) and keys[position] == node:
            offs = self._offs
            value = frozenset(self._vals[offs[position] : offs[position + 1]])
        else:
            value = EMPTY_SET
        self[node] = value
        return value


class OverlaySets(dict):
    """Lazy ``node -> frozenset`` views of one direction of a dirty column.

    A node the pending overlay touches gets its base span set minus its
    pending deletions plus its pending additions; every other node gets
    the base :class:`SpanSets` entry itself, so its neighbour set stays
    the identical object across writes, clones and MVCC forks.  Every
    answer is memoized, so warm lookups cost one C-level subscript, as
    on a clean column.  The column replaces its overlay sets on every
    mutation, which is what makes them safe to memoize.
    """

    __slots__ = ("_base", "_adds", "_dels")

    def __init__(
        self,
        base: SpanSets,
        adds: Dict[int, Tuple[int, ...]],
        dels: Dict[int, Tuple[int, ...]],
    ) -> None:
        super().__init__()
        self._base = base
        self._adds = adds
        self._dels = dels

    def __missing__(self, node: int) -> frozenset:
        value = self._base[node]
        gone = self._dels.get(node)
        if gone:
            value = value.difference(gone)
        extra = self._adds.get(node)
        if extra:
            value = value.union(extra)
        self[node] = value
        return value


def _push(bucket: Dict[int, Tuple[int, ...]], key: int, value: int) -> None:
    bucket[key] = bucket.get(key, ()) + (value,)


def _drop(bucket: Dict[int, Tuple[int, ...]], key: int, value: int) -> None:
    values = tuple(v for v in bucket[key] if v != value)
    if values:
        bucket[key] = values
    else:
        del bucket[key]


class EdgeColumn:
    """One edge label's adjacency: bidirectional CSR + pending overlay.

    The forward arrays group targets by source; the reverse arrays
    group sources by target.  Both are maintained by linear merges, so
    no read re-sorts the whole label; the store handles COW cloning.

    The overlay is the pair sets ``add_set``/``del_set`` plus per-node
    buckets (``add_out``/``add_in``/``del_out``/``del_in``) holding
    tuples that a write replaces rather than extends, so a clone copies
    one dict per bucket whatever the pending count.  ``out_sets`` and
    ``in_sets`` are the current ``node -> frozenset`` neighbour maps:
    the base :class:`SpanSets` while the overlay is empty, an
    :class:`OverlaySets` over them otherwise.
    """

    __slots__ = (
        "fwd_keys",
        "fwd_offs",
        "fwd_vals",
        "rev_keys",
        "rev_offs",
        "rev_vals",
        "fwd_sets",
        "rev_sets",
        "add_set",
        "del_set",
        "add_out",
        "add_in",
        "del_out",
        "del_in",
        "count",
        "epoch",
        "out_sets",
        "in_sets",
        "_frozenset",
    )

    def __init__(self, epoch: int = 0) -> None:
        self.epoch = epoch
        self.add_set: Set[Tuple[int, int]] = set()
        self.del_set: Set[Tuple[int, int]] = set()
        self.add_out: Dict[int, Tuple[int, ...]] = {}
        self.add_in: Dict[int, Tuple[int, ...]] = {}
        self.del_out: Dict[int, Tuple[int, ...]] = {}
        self.del_in: Dict[int, Tuple[int, ...]] = {}
        self.count = 0
        self._frozenset: Optional[frozenset] = None
        empty = (array("q"), array("q", (0,)), array("q"))
        self._bind(empty, empty)

    @classmethod
    def from_pairs(cls, pairs: List[Tuple[int, int]], epoch: int = 0) -> "EdgeColumn":
        """A column holding ``pairs`` (sorted, duplicate-free) as its base."""
        col = cls(epoch)
        col._bind(build_csr(pairs), build_csr(sorted((t, s) for s, t in pairs)))
        col.count = len(pairs)
        return col

    def _bind(self, fwd: Tuple[array, array, array], rev: Tuple[array, array, array]) -> None:
        """Install new base CSR arrays under an empty overlay.

        The one place base arrays are (re)assigned, so the base span
        sets always describe the arrays beside them.
        """
        self.fwd_keys, self.fwd_offs, self.fwd_vals = fwd
        self.rev_keys, self.rev_offs, self.rev_vals = rev
        self.out_sets = self.fwd_sets = SpanSets(*fwd)
        self.in_sets = self.rev_sets = SpanSets(*rev)

    # -- mutation (writer-owned columns only) ---------------------------
    def add(self, source: int, target: int) -> bool:
        pair = (source, target)
        if pair in self.del_set:
            self.del_set.remove(pair)
            _drop(self.del_out, source, target)
            _drop(self.del_in, target, source)
        elif pair in self.add_set or self._in_base(source, target):
            return False
        else:
            self.add_set.add(pair)
            _push(self.add_out, source, target)
            _push(self.add_in, target, source)
        self.count += 1
        self._changed()
        return True

    def remove(self, source: int, target: int) -> bool:
        pair = (source, target)
        if pair in self.add_set:
            self.add_set.remove(pair)
            _drop(self.add_out, source, target)
            _drop(self.add_in, target, source)
        elif pair not in self.del_set and self._in_base(source, target):
            self.del_set.add(pair)
            _push(self.del_out, source, target)
            _push(self.del_in, target, source)
        else:
            return False
        self.count -= 1
        self._changed()
        return True

    def _changed(self) -> None:
        """Drop the memos a mutation stales; fold an outgrown overlay."""
        self._frozenset = None
        pending = len(self.add_set) + len(self.del_set)
        if pending > max(_FLUSH_MIN, len(self.fwd_vals) >> _FLUSH_SHIFT):
            self.flush()
        else:
            self._overlay_sets()

    def _overlay_sets(self) -> None:
        if self.add_set or self.del_set:
            self.out_sets = OverlaySets(self.fwd_sets, self.add_out, self.del_out)
            self.in_sets = OverlaySets(self.rev_sets, self.add_in, self.del_in)
        else:
            self.out_sets, self.in_sets = self.fwd_sets, self.rev_sets

    def flush(self) -> None:
        """Fold the overlay into fresh CSR base arrays (writer-only)."""
        if not self.dirty:
            return
        merged = self.merged_arrays()
        self.add_set = set()
        self.del_set = set()
        self.add_out = {}
        self.add_in = {}
        self.del_out = {}
        self.del_in = {}
        self._bind(merged[:3], merged[3:])

    # -- reads (never mutate base or overlay) ---------------------------
    @property
    def dirty(self) -> bool:
        """Whether a pending overlay is outstanding."""
        return bool(self.add_set or self.del_set)

    def _in_base(self, source: int, target: int) -> bool:
        lo, hi = csr_span(self.fwd_keys, self.fwd_offs, source)
        if lo == hi:
            return False
        vals = self.fwd_vals
        position = bisect_left(vals, target, lo, hi)
        return position < hi and vals[position] == target

    def has(self, source: int, target: int) -> bool:
        pair = (source, target)
        if pair in self.add_set:
            return True
        if pair in self.del_set:
            return False
        return self._in_base(source, target)

    @staticmethod
    def _side(
        node: int, keys: array, offs: array, vals: array,
        adds: Dict[int, Tuple[int, ...]], dels: Dict[int, Tuple[int, ...]],
    ) -> List[int]:
        lo, hi = csr_span(keys, offs, node)
        base = vals[lo:hi].tolist() if hi > lo else []
        gone = dels.get(node)
        if gone:
            base = [v for v in base if v not in gone]
        extra = adds.get(node)
        if extra:
            base.extend(extra)
            base.sort()
        return base

    def out_list(self, source: int) -> List[int]:
        """Sorted targets of edges leaving ``source``."""
        return self._side(
            source, self.fwd_keys, self.fwd_offs, self.fwd_vals, self.add_out, self.del_out
        )

    def in_list(self, target: int) -> List[int]:
        """Sorted sources of edges arriving at ``target``."""
        return self._side(
            target, self.rev_keys, self.rev_offs, self.rev_vals, self.add_in, self.del_in
        )

    def has_source(self, source: int) -> bool:
        return self.out_degree(source) > 0

    def has_target(self, target: int) -> bool:
        return self.in_degree(target) > 0

    def out_degree(self, source: int) -> int:
        lo, hi = csr_span(self.fwd_keys, self.fwd_offs, source)
        return (hi - lo) + len(self.add_out.get(source, ())) - len(self.del_out.get(source, ()))

    def in_degree(self, target: int) -> int:
        lo, hi = csr_span(self.rev_keys, self.rev_offs, target)
        return (hi - lo) + len(self.add_in.get(target, ())) - len(self.del_in.get(target, ()))

    def as_frozenset(self) -> frozenset:
        """All ``(source, target)`` pairs as a frozenset, memoized: the
        identical object until the next ``add``/``remove``."""
        frozen = self._frozenset
        if frozen is None:
            frozen = self._frozenset = frozenset(self.pairs())
        return frozen

    def pairs(self) -> Iterator[Tuple[int, int]]:
        """All ``(source, target)`` pairs, sorted (merged view)."""
        if not self.dirty:
            keys, offs, vals = self.fwd_keys, self.fwd_offs, self.fwd_vals
        else:
            keys, offs, vals = _merge_csr(
                self.fwd_keys, self.fwd_offs, self.fwd_vals,
                self.del_set, sorted(self.add_set),
            )
        for index, key in enumerate(keys):
            for position in range(offs[index], offs[index + 1]):
                yield key, vals[position]

    def merged_arrays(self) -> Tuple[array, array, array, array, array, array]:
        """The six CSR arrays with the overlay folded in (read-only)."""
        if not self.dirty:
            return (
                self.fwd_keys, self.fwd_offs, self.fwd_vals,
                self.rev_keys, self.rev_offs, self.rev_vals,
            )
        fwd = _merge_csr(
            self.fwd_keys, self.fwd_offs, self.fwd_vals,
            self.del_set, sorted(self.add_set),
        )
        rev = _merge_csr(
            self.rev_keys, self.rev_offs, self.rev_vals,
            {(t, s) for s, t in self.del_set},
            sorted((t, s) for s, t in self.add_set),
        )
        return fwd + rev

    def clone(self, epoch: int) -> "EdgeColumn":
        """A twin writable at ``epoch``, sharing the base arrays and their
        span sets by reference; a constant number of containers whatever
        the overlay holds (the buckets' tuples are shared, never mutated)."""
        twin = EdgeColumn.__new__(EdgeColumn)
        twin.epoch = epoch
        twin.fwd_keys = self.fwd_keys
        twin.fwd_offs = self.fwd_offs
        twin.fwd_vals = self.fwd_vals
        twin.rev_keys = self.rev_keys
        twin.rev_offs = self.rev_offs
        twin.rev_vals = self.rev_vals
        twin.fwd_sets = self.fwd_sets
        twin.rev_sets = self.rev_sets
        twin.add_set = set(self.add_set)
        twin.del_set = set(self.del_set)
        twin.add_out = dict(self.add_out)
        twin.add_in = dict(self.add_in)
        twin.del_out = dict(self.del_out)
        twin.del_in = dict(self.del_in)
        twin.count = self.count
        twin._frozenset = self._frozenset
        twin._overlay_sets()
        return twin

    def nbytes(self) -> int:
        arrays = (
            self.fwd_keys, self.fwd_offs, self.fwd_vals,
            self.rev_keys, self.rev_offs, self.rev_vals,
        )
        total = sum(a.itemsize * len(a) for a in arrays)
        total += sys.getsizeof(self.add_set) + sys.getsizeof(self.del_set)
        total += sys.getsizeof(self.add_out) + sys.getsizeof(self.add_in)
        total += sys.getsizeof(self.del_out) + sys.getsizeof(self.del_in)
        return total
